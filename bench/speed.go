package main

import (
	"math/rand"
	"sort"
	"time"
)

// The benchmark runs on shared virtual machines whose speed wanders as the
// host's other tenants come and go. The compiler is deterministic (a cell's
// solver counters repeat exactly from run to run), yet the same 11
// compiles, repeated for ten minutes on a 2-vCPU VM, took 0.56 to 1.34 s
// a round: over windows of 10 to 30 s its interquartile range was 18-19%
// of the median. That spread is the machine's, not the program's, and it
// is wider than any regression worth catching. Each vCPU drifts on its
// own, so the chunks run on the goroutine that compiles.
//
// So the benchmark measures the machine's speed as it goes. Between
// operations it runs a fixed reference chunk and records how long it took;
// every time it reports is in reference time: wall time divided by the
// machine's slowness around that moment, the chunk's duration over
// refNominal. Over the same ten minutes, compile time divided by the time
// of a reference loop run between rounds varied by 3-7% over 10 to 30 s
// windows. A change to the compiler moves compile time and leaves the
// chunk alone, so reference time moves with it.

const (
	refEntries = 1 << 18 // uint32 entries in the chase table: 1 MiB
	refSteps   = 200000  // table reads per chunk
	refSortLen = 1 << 15 // ints sorted per chunk
	// refNominal is the unit reference time is counted in: about the
	// chunk's median duration on a 2-vCPU Intel Xeon VM, so that reference
	// milliseconds read close to wall milliseconds there.
	refNominal = 10 * time.Millisecond
	// tickEvery is how much work runs between chunks; the chunks cost about
	// 5% of a run.
	tickEvery = 200 * time.Millisecond
	// speedWindow is how far from an interval its speed is judged: the
	// machine's speed drifts over seconds, a single chunk is noisy.
	speedWindow = time.Second
)

// speedometer runs the reference chunks and converts wall intervals to
// reference time. Only the workload's own goroutine ticks it, between
// operations, while nothing else of the benchmark's runs.
type speedometer struct {
	table    []uint32
	unsorted []int
	sorted   []int
	sink     uint32
	marks    []mark // in time order
	last     time.Time
}

// mark is one chunk: when it ran and how slow the machine was.
type mark struct {
	start, end time.Time
	slow       float64 // chunk duration / refNominal
}

func newSpeedometer() *speedometer {
	t := make([]uint32, refEntries)
	for i := range t {
		t[i] = uint32(i)
	}
	// Sattolo's shuffle leaves one cycle through every entry, so the chase
	// never settles into a short loop that stays in cache.
	rng := rand.New(rand.NewSource(1))
	for i := len(t) - 1; i > 0; i-- {
		j := rng.Intn(i)
		t[i], t[j] = t[j], t[i]
	}
	s := &speedometer{table: t, unsorted: make([]int, refSortLen), sorted: make([]int, refSortLen)}
	for i := range s.unsorted {
		s.unsorted[i] = rng.Int()
	}
	s.chunk() // fault the buffers in
	return s
}

// chunk is the reference work. It walks the table, each read's address
// the previous read's value, with a branch on each value: bound by memory
// latency and branch mispredictions, as the solver's clause and watch-list
// walks are. Then it sorts a fixed array: compares and swaps in cache.
// Timed beside the compiler for seven minutes, the 1 MiB chase tracked its
// speed better than chases through 32 KiB or 16 MiB, a sort, or
// allocation into maps and trees, and the chase and the sort together
// better still. It allocates nothing, so the garbage collector's state
// does not change it.
func (s *speedometer) chunk() {
	j, acc := uint32(0), uint32(0)
	for i := 0; i < refSteps; i++ {
		j = s.table[j]
		if j&1 != 0 {
			acc ^= j << 3
		} else {
			acc += j >> 2
		}
	}
	copy(s.sorted, s.unsorted)
	sort.Ints(s.sorted)
	s.sink += acc + uint32(s.sorted[refSortLen/2])
}

// tick runs a chunk and records the machine's slowness.
func (s *speedometer) tick() {
	t0 := time.Now()
	s.chunk()
	t1 := time.Now()
	s.marks = append(s.marks, mark{start: t0, end: t1, slow: float64(t1.Sub(t0)) / float64(refNominal)})
	s.last = t1
}

// maybe ticks when tickEvery has passed since the last chunk.
func (s *speedometer) maybe() {
	if time.Since(s.last) >= tickEvery {
		s.tick()
	}
}

// slowness is the median slowness of the chunks that ran within
// speedWindow of [a, b], or, with fewer than two there, of the nearest
// chunk on each side. It is 1 when no chunk has run.
func (s *speedometer) slowness(a, b time.Time) float64 {
	lo := sort.Search(len(s.marks), func(i int) bool { return !s.marks[i].end.Before(a.Add(-speedWindow)) })
	hi := sort.Search(len(s.marks), func(i int) bool { return s.marks[i].start.After(b.Add(speedWindow)) })
	if hi-lo < 2 {
		before := sort.Search(len(s.marks), func(i int) bool { return s.marks[i].end.After(a) })
		after := sort.Search(len(s.marks), func(i int) bool { return !s.marks[i].start.Before(b) })
		lo, hi = max(min(lo, before-1), 0), min(max(hi, after+1), len(s.marks))
	}
	if hi <= lo {
		return 1
	}
	xs := make([]float64, 0, hi-lo)
	for _, m := range s.marks[lo:hi] {
		xs = append(xs, m.slow)
	}
	return median(xs)
}

// ref converts the wall interval [a, b] to reference time: the interval
// less the chunks that ran inside it, each remaining piece divided by the
// machine's slowness around it.
func (s *speedometer) ref(a, b time.Time) time.Duration {
	var total float64
	piece := func(from, to time.Time) {
		if to.After(from) {
			total += float64(to.Sub(from)) / s.slowness(from, to)
		}
	}
	i := sort.Search(len(s.marks), func(i int) bool { return !s.marks[i].start.Before(a) })
	for ; i < len(s.marks) && !s.marks[i].end.After(b); i++ {
		piece(a, s.marks[i].start)
		a = s.marks[i].end
	}
	piece(a, b)
	return time.Duration(total)
}

// machineSlowness is the median slowness over every chunk of the run, for
// the run's notes.
func (s *speedometer) machineSlowness() float64 {
	xs := make([]float64, len(s.marks))
	for i, m := range s.marks {
		xs[i] = m.slow
	}
	return median(xs)
}
