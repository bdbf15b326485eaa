package engine

import (
	"path/filepath"
	"testing"

	"blaze/internal/exec"
	"blaze/internal/graph"
	"blaze/internal/ssd"
)

// TestEdgeMapFromFiles: FromFiles loads the index alone (the adjacency
// stays on disk, behind the striped devices) and Close releases the file,
// idempotently. TestEdgeMapInvariance's file rows run EdgeMap over it.
func TestEdgeMapFromFiles(t *testing.T) {
	c := testCSR()
	base := filepath.Join(t.TempDir(), "g")
	if err := graph.WriteFiles(c, nil, base); err != nil {
		t.Fatal(err)
	}
	g, err := FromFiles(exec.NewSim(), "g", base+".gr.index", base+".gr.adj.0", 3, ssd.OptaneSSD, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.CSR.Adj != nil || g.CSR.V != c.V || g.CSR.E != c.E || g.Arr.NumDevices() != 3 {
		t.Errorf("loaded V=%d E=%d over %d devices, adjacency in memory %t; want V=%d E=%d over 3, on disk",
			g.CSR.V, g.CSR.E, g.Arr.NumDevices(), g.CSR.Adj != nil, c.V, c.E)
	}
	if err := g.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := g.Close(); err != nil { // idempotent
		t.Errorf("second Close: %v", err)
	}
}

// TestFromFilesErrors surfaces missing or mismatched files.
func TestFromFilesErrors(t *testing.T) {
	ctx := exec.NewSim()
	dir := t.TempDir()
	if _, err := FromFiles(ctx, "x", dir+"/missing.gr.index", dir+"/missing.adj", 1, ssd.OptaneSSD, nil, nil); err == nil {
		t.Error("missing index did not error")
	}
	// Valid index, missing adjacency.
	c := graph.MustBuild(16, []uint32{0}, []uint32{1})
	if err := graph.WriteIndex(c, dir+"/g.gr.index"); err != nil {
		t.Fatal(err)
	}
	if _, err := FromFiles(ctx, "x", dir+"/g.gr.index", dir+"/missing.adj", 1, ssd.OptaneSSD, nil, nil); err == nil {
		t.Error("missing adjacency did not error")
	}
}

// TestApproxValBytes pins the record-size estimation used for bin sizing.
func TestApproxValBytes(t *testing.T) {
	if approxValBytes[bool]() != 1 || approxValBytes[uint16]() != 2 ||
		approxValBytes[float32]() != 4 || approxValBytes[float64]() != 8 ||
		approxValBytes[uint32]() != 4 || approxValBytes[int64]() != 8 {
		t.Error("approxValBytes misestimates a value type")
	}
}
