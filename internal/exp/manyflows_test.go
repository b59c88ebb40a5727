package exp

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func smallManyFlows() ManyFlowsParams {
	p := DefaultManyFlows()
	p.Flows = []int{200}
	return p
}

func TestManyFlowsSmallDecade(t *testing.T) {
	res := runExp[*ManyFlowsResult](t, "manyflows", smallManyFlows())
	if len(res.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(res.Cells))
	}
	c := res.Cells[0]
	if c.Flows != 200 {
		t.Fatalf("Flows = %d, want 200", c.Flows)
	}
	if c.Utilization < 0.5 || c.Utilization > 1.05 {
		t.Fatalf("utilization = %v, want within (0.5, 1.05)", c.Utilization)
	}
	if c.Fairness < 0.5 || c.Fairness > 1.0+1e-9 {
		t.Fatalf("Jain fairness = %v, want within (0.5, 1]", c.Fairness)
	}
	if len(c.ThroughputP) != 5 || len(c.LossP) != 5 {
		t.Fatalf("quantile vectors %d/%d long, want 5/5", len(c.ThroughputP), len(c.LossP))
	}
	// Quantiles are ordered, and the median flow is near its fair share.
	for i := 1; i < 5; i++ {
		if c.ThroughputP[i] < c.ThroughputP[i-1] || c.LossP[i] < c.LossP[i-1] {
			t.Fatalf("quantiles not monotone: thru=%v loss=%v", c.ThroughputP, c.LossP)
		}
	}
	if med := c.ThroughputP[2]; med < 0.5 || med > 1.5 {
		t.Fatalf("median normalized throughput = %v, want near 1", med)
	}
	if c.DeliveredPkts <= 0 {
		t.Fatal("no packets delivered")
	}
}

func TestManyFlowsDeterministic(t *testing.T) {
	p := smallManyFlows()
	a := runExp[*ManyFlowsResult](t, "manyflows", p)
	b := runExp[*ManyFlowsResult](t, "manyflows", p)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical params produced different results")
	}
}

func TestManyFlowsParamsRoundTrip(t *testing.T) {
	p := DefaultManyFlows()
	p.Queue = 1 // RED: exercises the text marshaller
	raw, err := json.Marshal(&p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"RED"`)) {
		t.Fatalf("queue kind not serialized by name: %s", raw)
	}
	var q ManyFlowsParams
	if err := json.Unmarshal(raw, &q); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip changed params:\n%+v\n%+v", p, q)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestManyFlowsRegistered(t *testing.T) {
	d, ok := Lookup("manyflows")
	if !ok {
		t.Fatal("manyflows not registered")
	}
	if _, err := d.PresetParams("million"); err != nil {
		t.Fatal(err)
	}
	p, _ := d.PresetParams("")
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}
