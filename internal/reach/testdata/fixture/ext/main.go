package main

import "fix/internal/p"

func main() { p.External() }
