package exp

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParams decodes the input as a -params overlay on every registered
// experiment's defaults, unknown fields rejected as the CLI does, and
// requires that any parameter set Validate accepts yields a grid of at
// least one cell without panicking. The seed corpus under
// testdata/fuzz/FuzzParams holds the smoke overlays and the presets.
func FuzzParams(f *testing.F) {
	f.Fuzz(func(t *testing.T, overlay []byte) {
		for _, d := range Experiments() {
			p := d.Params()
			dec := json.NewDecoder(bytes.NewReader(overlay))
			dec.DisallowUnknownFields()
			if dec.Decode(p) != nil || p.Validate() != nil {
				continue
			}
			n, err := d.Grid.Cells(p)
			if err != nil || n < 1 {
				t.Fatalf("%s: valid params %s give %d cells (err %v)", d.Name, overlay, n, err)
			}
		}
	})
}
