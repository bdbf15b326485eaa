package bench

import (
	"strconv"
	"testing"
)

// Experiment-runner smoke tests: every runner must produce its tables with
// the expected dimensions and sane values at a very coarse scale. These
// exercise the complete measurement paths (all systems, all queries, all
// sweeps) that cmd/blaze-bench runs at full resolution.

const smokeScale = 80000

func parse(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", cell, err)
	}
	return v
}

func checkTable(t *testing.T, tb Table, wantRows, wantCols int) {
	t.Helper()
	if len(tb.Rows) != wantRows {
		t.Fatalf("%s: %d rows, want %d", tb.ID, len(tb.Rows), wantRows)
	}
	for _, r := range tb.Rows {
		if len(r) != wantCols {
			t.Fatalf("%s: row has %d cells, want %d", tb.ID, len(r), wantCols)
		}
	}
}

func TestFig1Smoke(t *testing.T) {
	tables := Fig1(smokeScale)
	if len(tables) != 2 {
		t.Fatal("fig1 should yield two tables")
	}
	checkTable(t, tables[0], 5, 7) // flashgraph: bfs,pr,wcc,spmv,bc
	checkTable(t, tables[1], 4, 7) // graphene: no bc
	for _, tb := range tables {
		for _, row := range tb.Rows {
			for _, cell := range row[1:] {
				bw := parse(t, cell)
				if bw <= 0 || bw > 4 {
					t.Errorf("%s: implausible bandwidth %g GB/s", tb.ID, bw)
				}
			}
		}
	}
}

func TestFig2Smoke(t *testing.T) {
	tables := Fig2(smokeScale)
	if tables[0].ID != "fig2_summary" {
		t.Fatal("first table should be the summary")
	}
	checkTable(t, tables[0], 3, 3)
	if len(tables) != 7 { // summary + 3 queries x 2 devices
		t.Fatalf("fig2 yielded %d tables, want 7", len(tables))
	}
	for _, tb := range tables[1:] {
		if len(tb.Rows) == 0 {
			t.Errorf("%s: empty timeline", tb.ID)
		}
	}
}

func TestFig3Smoke(t *testing.T) {
	tables := Fig3(smokeScale)
	checkTable(t, tables[0], 5, 4)
	// Every per-graph series must account all its iterations.
	for _, tb := range tables[1:] {
		if len(tb.Rows) == 0 {
			t.Errorf("%s: no iterations", tb.ID)
		}
	}
}

func TestFig4Smoke(t *testing.T) {
	tables := Fig4(smokeScale)
	checkTable(t, tables[0], 3, 7)
	for _, row := range tables[0].Rows {
		compute := parse(t, row[1])
		nand := parse(t, row[5])
		optane := parse(t, row[6])
		if compute <= nand {
			t.Errorf("fig4 %s: single-thread compute %g not above NAND line %g", row[0], compute, nand)
		}
		if compute >= optane {
			t.Errorf("fig4 %s: single-thread compute %g not below Optane line %g", row[0], compute, optane)
		}
	}
}

func TestFig7Smoke(t *testing.T) {
	tables := Fig7(smokeScale)
	checkTable(t, tables[0], 5, 7)
	checkTable(t, tables[1], 4, 7)
	for _, tb := range tables {
		for _, row := range tb.Rows {
			for _, cell := range row[1:] {
				if s := parse(t, cell); s <= 0 {
					t.Errorf("%s: non-positive speedup %g", tb.ID, s)
				}
			}
		}
	}
}

func TestFig8Smoke(t *testing.T) {
	tables := Fig8(smokeScale)
	checkTable(t, tables[0], 5, 7)
	checkTable(t, tables[1], 5, 7)
}

func TestFig9Smoke(t *testing.T) {
	tables := Fig9(smokeScale)
	if len(tables) != len(SixGraphs) {
		t.Fatalf("fig9 yielded %d tables, want %d", len(tables), len(SixGraphs))
	}
	for _, tb := range tables {
		checkTable(t, tb, 5, 5)
		// Times must be positive and 16 workers never worse than 2 by
		// more than noise on compute-heavy queries (checked loosely).
		for _, row := range tb.Rows {
			if parse(t, row[1]) <= 0 || parse(t, row[4]) <= 0 {
				t.Errorf("%s: non-positive time", tb.ID)
			}
		}
	}
}

func TestFig10Smoke(t *testing.T) {
	tables := Fig10(smokeScale)
	checkTable(t, tables[0], 6, 7)
}

func TestFig11Smoke(t *testing.T) {
	tables := Fig11(smokeScale)
	checkTable(t, tables[0], 5, 10)
	checkTable(t, tables[1], 5, 8)
}

func TestFig12Smoke(t *testing.T) {
	tables := Fig12(smokeScale)
	checkTable(t, tables[0], 5, 8)
	for _, row := range tables[0].Rows {
		for _, cell := range row[1:] {
			pct := parse(t, cell)
			// At this absurd smoke scale the fixed floors (128 KB IO
			// buffers, 64 KB bins) dominate tiny graphs, so only sanity
			// is checked; EXPERIMENTS.md holds the calibrated ratios.
			if pct <= 0 || pct > 1000 {
				t.Errorf("fig12: implausible footprint %g%%", pct)
			}
		}
	}
}

func TestTable2Smoke(t *testing.T) {
	tables := Table2(smokeScale)
	checkTable(t, tables[0], 7, 10)
	// Distribution column must match the presets.
	for _, row := range tables[0].Rows {
		if row[1] == "ur" && row[5] != "uniform" {
			t.Error("uran27 not marked uniform")
		}
		if row[1] == "r2" && row[5] != "power" {
			t.Error("rmat27 not marked power")
		}
	}
}

func TestAblationSmoke(t *testing.T) {
	tables := Ablation(smokeScale)
	if len(tables) != 3 {
		t.Fatalf("ablation yielded %d tables, want 3", len(tables))
	}
	checkTable(t, tables[0], 2, 4)
	checkTable(t, tables[1], 2, 4)
	checkTable(t, tables[2], 4, 4)
	// Staging ablation: unbatched must be clearly slower.
	unbatched, batched := parse(t, tables[1].Rows[0][1]), parse(t, tables[1].Rows[0][2])
	if unbatched < 1.5*batched {
		t.Errorf("staging ablation: unbatched %g not clearly slower than batched %g", unbatched, batched)
	}
}

func TestScaleOutSmoke(t *testing.T) {
	tables := ScaleOut(smokeScale)
	checkTable(t, tables[0], 4, 5)
	// SpMV must scale: 8 machines faster than 1.
	one, eight := parse(t, tables[0].Rows[0][1]), parse(t, tables[0].Rows[0][4])
	if eight >= one {
		t.Errorf("scale-out spmv: 8 machines (%g ms) not faster than 1 (%g ms)", eight, one)
	}
}
