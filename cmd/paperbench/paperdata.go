package main

// This file transcribes the paper's published numbers (Tables I–V and the
// headline figures) so every experiment can print "paper vs measured" side
// by side; one run's output is the whole measured-vs-paper record, indexed
// in DESIGN.md §3.

// paperTable1Row is one row of Table I (sequential evaluation, 100 runs on
// a Xeon W5580 3.2 GHz).
type paperTable1Row struct {
	N          int
	AvgSec     float64
	AvgIters   int64
	AvgLocMin  int64
	MinSec     float64
	MinIters   int64
	MaxSec     float64
	MaxIters   int64
	RatioAvgMn float64 // avg/min column
}

var paperTable1 = []paperTable1Row{
	{16, 0.08, 12665, 6853, 0.00, 212, 0.45, 69894, 60},
	{17, 0.59, 73430, 38982, 0.02, 2591, 2.39, 294580, 30},
	{18, 3.49, 395838, 207067, 0.03, 2789, 19.81, 2254001, 116},
	{19, 29.46, 2694319, 1372671, 0.31, 28911, 127.78, 11619940, 95},
	{20, 250.68, 20536809, 10278723, 3.89, 319368, 1097.06, 89791761, 66},
}

// paperTable2Row is one row of Table II (Dialectic Search vs Adaptive
// Search, seconds on a Pentium-III 733 MHz, averages of 100 runs).
type paperTable2Row struct {
	N     int
	DSsec float64
	ASsec float64
	Ratio float64
}

var paperTable2 = []paperTable2Row{
	{13, 0.05, 0.01, 5.00},
	{14, 0.26, 0.05, 5.20},
	{15, 1.31, 0.24, 5.46},
	{16, 7.74, 0.97, 7.98},
	{17, 53.40, 7.58, 7.04},
	{18, 370.00, 44.49, 8.32},
}

// paperTable3 maps instance size → cores → average seconds on HA8000
// (Table III; 50 runs).
var paperTable3 = map[int]map[int]float64{
	18: {1: 6.76, 32: 0.25, 64: 0.23, 128: 0.24, 256: 0.26},
	19: {1: 54.54, 32: 1.84, 64: 1.00, 128: 0.72, 256: 0.55},
	20: {1: 367.24, 32: 13.82, 64: 8.66, 128: 3.74, 256: 2.18},
	21: {32: 160.42, 64: 81.72, 128: 38.56, 256: 16.01},
	22: {32: 501.23, 64: 249.73, 128: 128.47, 256: 60.80},
}

// paperTable4 maps instance size → cores → average seconds on the JUGENE
// Blue Gene/P (Table IV; 50 runs).
var paperTable4 = map[int]map[int]float64{
	21: {512: 43.66, 1024: 27.86, 2048: 10.21, 4096: 5.97, 8192: 2.84},
	22: {512: 265.12, 1024: 148.80, 2048: 76.24, 4096: 36.12, 8192: 20.00},
	23: {2048: 633.09, 4096: 354.69, 8192: 170.38},
}

// paperTable5Suno / Helios map size → cores → average seconds on GRID'5000
// (Table V; 50 runs).
var paperTable5Suno = map[int]map[int]float64{
	18: {1: 5.28, 32: 0.16, 64: 0.083, 128: 0.056, 256: 0.038},
	19: {1: 49.5, 32: 1.37, 64: 0.59, 128: 0.41, 256: 0.219},
	20: {1: 372, 32: 12.2, 64: 5.86, 128: 2.67, 256: 1.79},
	21: {1: 3743, 32: 171, 64: 51.4, 128: 34.9, 256: 17.2},
	22: {32: 731, 64: 381, 128: 200, 256: 103},
}

var paperTable5Helios = map[int]map[int]float64{
	18: {1: 8.16, 32: 0.24, 64: 0.11, 128: 0.06},
	19: {1: 52, 32: 2.3, 64: 0.87, 128: 0.40},
	20: {1: 444, 32: 14.3, 64: 7.63, 128: 4.52},
	21: {1: 5391, 32: 153, 64: 101, 128: 36.7},
	22: {32: 1218, 64: 520, 128: 220},
}

// Headline speed-up claims used as shape checks in the printed summaries.
const (
	paperSpeedup128 = 120.0 // "120 for 128 cores" (§I, §VI)
	paperSpeedup256 = 230.0 // "230 for 256 cores" (§I)
	// JUGENE: speed-up 15.33 for CAP 21 from 512→8192 cores (ideal 16).
	paperJugeneSpeedup21 = 15.33
	paperJugeneSpeedup22 = 13.25
)
