// Engines-compare: run the same BFS query on every engine in the registry
// and print each engine's modeled makespan — the paper's Figure 7/8
// comparison in miniature, and a demonstration that one query runs
// unchanged on all five systems.
//
//	go run ./examples/engines-compare
package main

import (
	"fmt"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/metrics"
	"blaze/internal/registry"
	"blaze/internal/ssd"
)

func main() {
	const numDev = 2
	preset, err := gen.PresetByShort("r2") // small rmat-style graph
	if err != nil {
		panic(err)
	}
	preset = preset.Scaled(2048)

	fmt.Printf("BFS on %s (|V|=%d |E|~%d) across all engines:\n\n",
		preset.Name, preset.V, preset.E)
	for _, name := range registry.Names() {
		// Each engine gets a fresh deterministic virtual-time context and
		// its own copy of the graph, so makespans are comparable.
		ctx := exec.NewSim()
		stats := metrics.NewIOStats(numDev)
		out, _ := engine.BuildPreset(ctx, preset, numDev, ssd.OptaneSSD, stats, nil)

		sys, err := registry.New(name, ctx, registry.Options{
			Edges:   out.NumEdges(),
			NumDev:  numDev,
			Profile: ssd.OptaneSSD,
			Stats:   stats,
		})
		if err != nil {
			panic(err)
		}

		var reached int
		ctx.Run("main", func(p exec.Proc) {
			parent := algo.Must(algo.BFS(sys, p, out, 0))
			for _, pa := range parent {
				if pa != -1 {
					reached++
				}
			}
		})
		fmt.Printf("  %-12s %8.3f ms modeled, %6.1f MB read, %d vertices reached\n",
			name, float64(ctx.End)/1e6, float64(stats.TotalBytes())/1e6, reached)
	}
}
