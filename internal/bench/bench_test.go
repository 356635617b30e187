package bench

import "testing"

// The canonical benchmark bodies, runnable with the ordinary tooling:
//
//	go test ./internal/bench -bench . -benchtime 100x
//
// cmd/bench runs the same bodies via testing.Benchmark to produce the
// committed BENCH_*.json snapshots.

func BenchmarkEngineEvents(b *testing.B)    { EngineEvents(b) }
func BenchmarkTypedEvents(b *testing.B)     { TypedEvents(b) }
func BenchmarkTickerEvents(b *testing.B)    { TickerEvents(b) }
func BenchmarkFlitHop(b *testing.B)         { FlitHop(b) }
func BenchmarkSaturatedNoC(b *testing.B)    { SaturatedNoC(b) }
func BenchmarkLowLoadNoC(b *testing.B)      { LowLoadNoC(b) }
func BenchmarkCacheAccess(b *testing.B)     { CacheAccess(b) }
func BenchmarkHMCAccess(b *testing.B)       { HMCAccess(b) }
func BenchmarkNewSystem(b *testing.B)       { NewSystem(b) }
func BenchmarkFig14Point(b *testing.B)      { Fig14Point(b) }
func BenchmarkFig07(b *testing.B)           { Fig07(b) }
func BenchmarkFig12(b *testing.B)           { Fig12(b) }
func BenchmarkFig16(b *testing.B)           { Fig16(b) }
func BenchmarkSweepSequential(b *testing.B) { SweepSequential(b) }
func BenchmarkSweepParallel(b *testing.B)   { SweepParallel(b) }
func BenchmarkServeWarmCache(b *testing.B)  { ServeWarmCache(b) }
