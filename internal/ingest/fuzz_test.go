package ingest

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var errPrefix = regexp.MustCompile(`^fuzz:([0-9]+): `)

// FuzzEdgeReader: arbitrary bytes never panic the reader; every edge it
// accepts re-parses from its printed form to the same pair; every error
// names fuzz:<line> with a line the input has; and an input holding a line
// past MaxLineBytes never reads through to a clean end.
func FuzzEdgeReader(f *testing.F) {
	for _, seed := range []string{
		"# header\n\n0 1\n   \n# mid\n2 3\n", "  0\t1\n5   6\n", "0 9\n3 2\n", "# nothing\n", "",
		"0\n", "0 1 2\n", "0 1 weight=3\n", "a b\n", "12abc 3\n", "-1 3\n", "3 -1\n", "1.5 2\n",
		"4294967296 0\n", "4294967295 0", "+1 2\n", "0 1\r\n", "0x10 1\n", "1_0 2\n", "\x00 1\n",
		"4 5\n0 " + strings.Repeat("1", MaxLineBytes) + "\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lines := bytes.Split(data, []byte("\n"))
		overlong := false
		for _, l := range lines {
			overlong = overlong || len(l) > MaxLineBytes
		}
		r := NewEdgeReader(bytes.NewReader(data), "fuzz")
		for {
			s, d, ok, err := r.Next()
			if err != nil {
				m := errPrefix.FindStringSubmatch(err.Error())
				if m == nil {
					t.Fatalf("error without fuzz:line: %v", err)
				}
				if n, _ := strconv.Atoi(m[1]); n < 1 || n > len(lines) {
					t.Fatalf("error names line %s of %d: %v", m[1], len(lines), err)
				}
				return
			}
			if !ok {
				if overlong {
					t.Fatalf("a line past %d bytes was read through", MaxLineBytes)
				}
				return
			}
			again := NewEdgeReader(strings.NewReader(fmt.Sprintf("%d %d\n", s, d)), "again")
			if s2, d2, ok, err := again.Next(); err != nil || !ok || s2 != s || d2 != d {
				t.Fatalf("accepted %d %d, which re-parses to %d %d (ok %v, err %v)", s, d, s2, d2, ok, err)
			}
		}
	})
}
