package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// smokeParams overlays each registered experiment's defaults with a
// parameter set that runs in well under a second yet still spans
// several cells wherever the grid has an axis. Every registered
// experiment needs an entry: TestEveryExperimentRunsAsGrid fails for
// one that has none.
var smokeParams = map[string]string{
	"fig2":       `{"T1":1,"T2":2,"Duration":3}`,
	"fig3":       `{"BufferSizes":[4,16,64],"Duration":12,"Warmup":4}`,
	"fig4":       `{"BufferSizes":[4,16,64],"Duration":12,"Warmup":4}`,
	"fig5":       `{"PLoss":[0.01,0.05,0.1,0.2]}`,
	"fig6":       `{"LinkMbps":[1,4],"TotalFlows":[2,4],"Queues":["DropTail","RED"],"Duration":8,"MeasureTail":4,"Seeds":2}`,
	"fig7":       `{"TotalFlows":[4,8,12],"Duration":8,"MeasureTail":4}`,
	"fig8":       `{"Flows":4,"Seeds":2}`,
	"fig9":       `{"Runs":3,"FlowsEach":2,"Duration":8,"Warmup":2,"Timescales":[0.5,1]}`,
	"fig11":      `{"Sources":[10,20],"Duration":8,"Warmup":2,"Timescales":[0.5,1],"Runs":2}`,
	"fig14":      `{"Flows":4,"Stagger":2,"Duration":5,"Seeds":2}`,
	"fig15":      `{"Duration":12,"Seeds":3}`,
	"fig16":      `{"Timescales":[0.5,1],"Duration":12}`,
	"fig18":      `{"HistorySizes":[2,4],"Duration":20}`,
	"fig19":      `{}`,
	"fig20":      `{}`,
	"fig21":      `{"DropRates":[0.01,0.1,0.2]}`,
	"blackout":   `{"OutageStart":5,"OutageEnd":8,"Duration":12}`,
	"bwstep":     `{"StepAt":4,"RestoreAt":8,"Duration":12,"Seeds":3}`,
	"ccfair":     `{"RTTs":[0.06,0.12],"LinkMbps":[2],"Duration":8,"Warmup":2,"Seeds":2}`,
	"chaos":      `{"Cells":3,"Duration":20,"Episodes":2}`,
	"flap":       `{"FlapStart":4,"Period":2,"DownFor":0.5,"Flaps":2,"Duration":10}`,
	"manyflows":  `{"Flows":[50,100,200],"Duration":3,"Warmup":1}`,
	"parkinglot": `{"Bottlenecks":[1,2],"Duration":8,"Warmup":2,"Seeds":2}`,
}

// render is a result's table and its JSON encoding; json.Marshal fails
// on NaN or Inf, so a result carrying either fails the test.
func render(t *testing.T, res Result) (table, js []byte) {
	t.Helper()
	var b bytes.Buffer
	res.Table(&b)
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("result does not marshal: %v", err)
	}
	return b.Bytes(), js
}

// TestEveryExperimentRunsAsGrid pins the one execution path: for every
// registered experiment, a run is identical at any worker count, and
// computing the cell range in 2 or 3 slices (as shards do) then reducing
// reproduces the run byte for byte.
func TestEveryExperimentRunsAsGrid(t *testing.T) {
	t.Run("RegisterWithoutGridPanics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("Register accepted a descriptor without a Grid")
			}
		}()
		Register(Descriptor{Name: "gridless", Params: paramsFn[Fig19Params](DefaultFig19)})
	})
	for _, d := range Experiments() {
		t.Run(d.Name, func(t *testing.T) {
			overlay, ok := smokeParams[d.Name]
			if !ok {
				t.Fatalf("no smoke params for %s: add an entry to smokeParams", d.Name)
			}
			p := d.Params()
			dec := json.NewDecoder(strings.NewReader(overlay))
			dec.DisallowUnknownFields()
			if err := dec.Decode(p); err != nil {
				t.Fatalf("smoke params: %v", err)
			}

			var table, js []byte
			for _, workers := range []int{1, 3} {
				var res Result
				var err error
				withParallelism(workers, func() { res, err = RunExperiment(d, p) })
				if err != nil {
					t.Fatalf("parallel %d: %v", workers, err)
				}
				tb, j := render(t, res)
				if table == nil {
					table, js = tb, j
					continue
				}
				if !bytes.Equal(tb, table) || !bytes.Equal(j, js) {
					t.Fatalf("parallel %d output differs from parallel 1", workers)
				}
			}

			n, err := d.Grid.Cells(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, slices := range []int{2, 3} {
				var cells []json.RawMessage
				for i := 0; i < slices; i++ {
					part, err := d.Grid.RunRange(p, CellRange{i * n / slices, (i + 1) * n / slices})
					if err != nil {
						t.Fatalf("%d slices, slice %d: %v", slices, i, err)
					}
					cells = append(cells, part...)
				}
				res, err := d.Grid.Reduce(p, cells)
				if err != nil {
					t.Fatalf("%d slices: reduce: %v", slices, err)
				}
				tb, j := render(t, res)
				if !bytes.Equal(tb, table) || !bytes.Equal(j, js) {
					t.Fatalf("%d slices reduce to output that differs from run:\n--- run\n%s--- slices\n%s", slices, table, tb)
				}
			}
		})
	}
}
