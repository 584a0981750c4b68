package obs

import (
	"runtime"
	"sync"
	"time"
)

var processStart = time.Now()

// RegisterProcess registers Go runtime and process-level gauges on r:
// goroutine count, heap in use, live heap objects, cumulative GC cycles
// and pauses, and process uptime. The memory values come from one
// runtime.ReadMemStats per scrape, which stops the world, shared by
// every series that needs it. Safe to call more than once (callbacks
// are replaced).
func RegisterProcess(r *Registry) {
	var (
		mu sync.Mutex
		ms runtime.MemStats
	)
	r.BeforeScrape(func() {
		mu.Lock()
		runtime.ReadMemStats(&ms)
		mu.Unlock()
	})
	mem := func(field func(*runtime.MemStats) float64) func() float64 {
		return func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return field(&ms)
		}
	}
	r.GaugeFunc("authdex_go_goroutines",
		"Number of goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("authdex_go_heap_inuse_bytes",
		"Heap bytes in use.",
		mem(func(m *runtime.MemStats) float64 { return float64(m.HeapInuse) }))
	r.GaugeFunc("authdex_go_heap_objects",
		"Allocated heap objects (live plus not yet swept); each GC cycle marks the live ones.",
		mem(func(m *runtime.MemStats) float64 { return float64(m.HeapObjects) }))
	r.CounterFunc("authdex_go_gc_cycles_total",
		"Completed GC cycles.",
		mem(func(m *runtime.MemStats) float64 { return float64(m.NumGC) }))
	r.CounterFunc("authdex_go_gc_pause_seconds_total",
		"Cumulative GC stop-the-world pause time.",
		mem(func(m *runtime.MemStats) float64 { return float64(m.PauseTotalNs) / 1e9 }))
	r.CounterFunc("authdex_process_uptime_seconds",
		"Seconds since the process started.",
		func() float64 { return time.Since(processStart).Seconds() })
}
