package exec

import "testing"

// BenchmarkSimSyncYield is the price of one Sync that yields: 16 procs
// advance interleaved clocks, so nearly every Sync finds an earlier proc
// runnable (the shape of Stager.Emit → flushBin under the paper's 16
// compute threads).
func BenchmarkSimSyncYield(b *testing.B) {
	b.ReportAllocs()
	const procs = 16
	each := (b.N + procs - 1) / procs
	s := NewSim()
	s.Run("bench", func(p Proc) {
		for i := 0; i < procs; i++ {
			s.Go("sync", func(c Proc) {
				for k := 0; k < each; k++ {
					c.Advance(1)
					c.Sync()
				}
			})
		}
	})
}

// BenchmarkSimQueuePingPong is one blocking round trip through two
// capacity-1 queues: every Pop blocks and every Push wakes.
func BenchmarkSimQueuePingPong(b *testing.B) {
	b.ReportAllocs()
	s := NewSim()
	s.Run("ping", func(p Proc) {
		there, back := NewQueue[int](s, 1), NewQueue[int](s, 1)
		s.Go("pong", func(c Proc) {
			for {
				v, ok := there.Pop(c)
				if !ok {
					return
				}
				back.Push(c, v)
			}
		})
		for i := 0; i < b.N; i++ {
			p.Advance(1)
			there.Push(p, i)
			back.Pop(p)
		}
		there.Close()
	})
}

// BenchmarkSimSpawnJoin is one proc's whole life: Go, run, Done, and the
// parent's Wait.
func BenchmarkSimSpawnJoin(b *testing.B) {
	b.ReportAllocs()
	s := NewSim()
	s.Run("parent", func(p Proc) {
		for i := 0; i < b.N; i++ {
			wg := s.NewWaitGroup()
			wg.Add(1)
			s.Go("child", func(c Proc) { wg.Done(c) })
			wg.Wait(p)
		}
	})
}
