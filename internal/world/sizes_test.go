package world

import (
	"testing"
	"unsafe"

	"gamedb/internal/entity"
)

// TestHotRecordSizes pins the widths of the two records every layer
// copies: lanes, columns, trigger events and barrier rows hold
// entity.Values, and every emission, merge and apply moves Effects.
func TestHotRecordSizes(t *testing.T) {
	const why = "the width is a measured hot-path property: shrinking entity.Value 48 → 32 and Effect 128 → 88 " +
		"took cascade tick_ms_p50 from 2.73 to 2.03 ms on a 2-core box, faster in 20 of 20 pairs " +
		"(ROADMAP.md, Recent, \"compact hot records\"); re-measure before widening it"
	if got := unsafe.Sizeof(entity.Value{}); got != 32 {
		t.Errorf("entity.Value is %d bytes, want 32: %s", got, why)
	}
	if got := unsafe.Sizeof(Effect{}); got != 88 {
		t.Errorf("world.Effect is %d bytes, want 88: %s", got, why)
	}
}
