package entity

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// MarshalJSON encodes the value as a ["kindTag", "payload"] pair. Int64
// payloads travel as strings to survive JSON's float64 number model.
func (v Value) MarshalJSON() ([]byte, error) {
	var pair [2]string
	switch v.kind {
	case KindInvalid:
		pair = [2]string{"n", ""}
	case KindInt:
		pair = [2]string{"i", strconv.FormatInt(v.ival(), 10)}
	case KindFloat:
		pair = [2]string{"f", strconv.FormatFloat(v.fval(), 'g', -1, 64)}
	case KindString:
		pair = [2]string{"s", v.s}
	case KindBool:
		pair = [2]string{"b", strconv.FormatBool(v.bval())}
	default:
		return nil, fmt.Errorf("entity: cannot marshal kind %d", v.kind)
	}
	return json.Marshal(pair)
}

// UnmarshalJSON decodes the ["kindTag", "payload"] pair form.
func (v *Value) UnmarshalJSON(data []byte) error {
	var pair [2]string
	if err := json.Unmarshal(data, &pair); err != nil {
		return fmt.Errorf("entity: bad value encoding: %w", err)
	}
	switch pair[0] {
	case "n":
		*v = Null()
	case "i":
		n, err := strconv.ParseInt(pair[1], 10, 64)
		if err != nil {
			return fmt.Errorf("entity: bad int payload %q", pair[1])
		}
		*v = Int(n)
	case "f":
		f, err := strconv.ParseFloat(pair[1], 64)
		if err != nil {
			return fmt.Errorf("entity: bad float payload %q", pair[1])
		}
		*v = Float(f)
	case "s":
		*v = Str(pair[1])
	case "b":
		*v = Bool(pair[1] == "true")
	default:
		return fmt.Errorf("entity: unknown kind tag %q", pair[0])
	}
	return nil
}
