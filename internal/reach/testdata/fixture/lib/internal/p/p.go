// Package p holds one export of each kind the scanner must tell apart.
package p

// T is used by the module's main package.
type T struct {
	Tagged int `xml:"tagged"` // read by encoding/xml only: not reported
	Count  int
}

// String makes T a fmt.Stringer: not reported.
func (T) String() string { return "t" }

// Unreferenced has no caller: reported.
func Unreferenced() {}

// TestOnly is called only from p_test.go: reported.
func TestOnly() {}

// External is called only from the second module: not reported.
func External() {}
