package p

import "testing"

func TestTestOnly(t *testing.T) { TestOnly() }
