package main

import (
	"fmt"

	"fix/internal/p"
)

func main() { fmt.Println(p.T{Count: 1}.Count) }
