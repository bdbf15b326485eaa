package algo

import (
	"blaze/internal/exec"
	"blaze/internal/frontier"
)

// Convergence is the driver layer's stopping contract, shared by every
// query and every driver. The zero value means "run until the frontier
// empties", which is exactly the classic hand-rolled loop.
type Convergence struct {
	// MaxIters bounds the number of rounds (0 = unbounded).
	MaxIters int
	// Tol, when > 0, stops the drive once Residual() drops to Tol or
	// below. Queries install a default Residual when the caller leaves
	// it nil (PageRank: remaining unpropagated rank mass).
	Tol float64
	// Residual measures remaining work for the Tol check; it is called
	// between iterations, never concurrently with EdgeMap.
	Residual func() float64
}

// Round executes one unit of query work on frontier f — typically one
// EdgeMap (plus any VertexMap apply step) — and returns the next
// activation set. iter is the zero-based iteration index.
type Round func(p exec.Proc, f *frontier.VertexSubset, iter int) (*frontier.VertexSubset, error)

// Driver owns iteration and convergence control for a query: one Round
// per iteration over the whole frontier, a barrier (EndIteration) after
// each. Queries supply the per-round work; the driver supplies the loop.
// With a zero Convergence it reproduces the original hand-rolled query
// loops call for call.
type Driver struct{}

// DriverFor returns the driver a system's queries are driven by; every
// system shares the one barrier driver.
func DriverFor(System) Driver { return Driver{} }

// Drive runs round over start until the active set empties or cv stops
// it, calling sys.EndIteration after every round. It returns the number of
// rounds issued; on error the traversal state is partial, as with a failed
// EdgeMap.
//
// Drive owns the frontiers the rounds return: each one it leaves behind —
// replaced by the next round's, or the last when the drive stops — goes
// back through sys.Release. The caller's start is never released, and
// neither is a frontier a round returns unchanged. A query whose rounds
// keep their inputs (BC's levels) drives a system whose Release is a no-op.
func (Driver) Drive(p exec.Proc, sys System, start *frontier.VertexSubset, round Round, cv Convergence) (int, error) {
	f := start
	iters := 0
	for !f.Empty() && (cv.MaxIters == 0 || iters < cv.MaxIters) {
		nf, err := round(p, f, iters)
		if err != nil {
			return iters, err
		}
		sys.EndIteration(p)
		iters++
		if f != start && f != nf {
			sys.Release(f)
		}
		f = nf
		if cv.Tol > 0 && cv.Residual != nil && cv.Residual() <= cv.Tol {
			break
		}
	}
	if f != start {
		sys.Release(f)
	}
	return iters, nil
}

// keeping is a System whose Release drops what it is handed: driving it
// keeps every frontier a round saw alive for the query to read afterwards.
type keeping struct{ System }

func (keeping) Release(*frontier.VertexSubset) {}
