package main

import (
	"math"
	"time"
)

// refProbeS is probeHost's time on the 2-core development host when it
// was quiet. Host-normalised figures are scaled to a host whose probe
// takes this long.
const refProbeS = 0.0318

var probeSink float64

// probeHost times two fixed kernels that belong to the benchmark, not to
// the program, and returns the geometric mean of their times in seconds:
// a 30M-step integer multiply chain (~46 ms) and twenty 96×96 float64
// matrix products (~22 ms). A change to the program cannot move it; a
// slow stretch of a shared host moves it together with the program's
// CPU-bound figures.
func probeHost() float64 {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 30_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	alu := time.Since(t0).Seconds()
	const n = 96
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i], b[i] = float64(i%7), float64(i%5)
	}
	t0 = time.Now()
	for r := 0; r < 20; r++ {
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				for j := 0; j < n; j++ {
					c[i*n+j] += aik * b[k*n+j]
				}
			}
		}
	}
	mm := time.Since(t0).Seconds()
	probeSink = c[5] + float64(x&1)
	return math.Sqrt(alu * mm)
}
