// Package bad is a fuzzvet fixture: every construct below must be
// flagged. The file lives under testdata/ so the go tool never builds
// it; fuzzvet's own tests parse it directly.
package bad

import (
	"fmt"
	"math/rand"
	"time"
)

type table struct {
	rows map[string]int
}

var registry = map[string]int{}

func sendsOrder(ch chan string) {
	for k := range registry { // leak: channel send
		ch <- k
	}
}

func launches(m map[int]int) {
	for k, v := range m { // leak: goroutine
		go fmt.Println(k, v)
	}
}

func callsExternal(t *table, w *fmt.Stringer) {
	sink := &sink{}
	for k := range t.rows { // leak: method call on loop-external receiver
		sink.Emit(k)
	}
}

func appendsUnsorted(m map[string]int) []string {
	var out []string
	for k := range m { // leak: unsorted append to loop-external slice
		out = append(out, k)
	}
	return out
}

type info struct{ tree []int }

func appendsToField(m map[int]bool) info {
	var in info
	for k := range m { // leak: unsorted append to a loop-external field
		in.tree = append(in.tree, k)
	}
	return in
}

func localMapLiteral() []int {
	m := map[int]bool{1: true, 2: true}
	var out []int
	for k := range m { // leak: same, map proven from the literal
		out = append(out, k)
	}
	return out
}

func wallClock() time.Time {
	return time.Now() // timenow
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // timenow
}

func sharedRand() int {
	rand.Seed(42)       // globalrand
	return rand.Intn(7) // globalrand
}

type sink struct{}

func (s *sink) Emit(string) {}
