package fleet

import (
	"math"

	"starlinkperf/internal/geo"
)

// cellGrid tiles the sphere into latitude rows of cellDeg height, each
// split into longitude cells whose count shrinks with cos(latitude) so
// cells stay roughly equal-area (~2.5° ≈ 280 km at the equator). Cell
// ids are dense: row r owns [rows[r].start, rows[r].start+rows[r].nLon).
//
// The grid is the pivot of the O(cells-in-view) reassignment: instead of
// testing every terminal against every satellite, each epoch walks the
// satellites once and admits each into the cells that hold terminals and
// that its coverage disk can overlap; terminals then search only their own
// cell's candidate list, skipping candidates whose per-cell bound cannot
// win (assign.go). The admission test is deliberately one-sided — it may
// admit satellites a terminal cannot actually see (the mask test rejects
// them later), but must never miss one a terminal could see. FuzzCellIndex
// hammers exactly that superset property, FuzzSinElevationBound the bound.
type cellGrid struct {
	cellDeg float64
	rows    []gridRow
	nCells  int
}

type gridRow struct {
	start int32
	nLon  int32
	width float64 // longitude cell width, radians
	// Cell-center latitude and its sin/cos, used by the admission
	// window; radius bounds the central angle from any point of a cell
	// to that cell's center (meridian leg + parallel leg at midLat).
	midLat float64
	sinMid float64
	cosMid float64
	radius float64
}

func newCellGrid(cellDeg float64) *cellGrid {
	nRows := int(math.Ceil(180 / cellDeg))
	g := &cellGrid{cellDeg: cellDeg, rows: make([]gridRow, 0, nRows)}
	start := 0
	for r := 0; r < nRows; r++ {
		latLo := -90 + float64(r)*cellDeg
		latHi := latLo + cellDeg
		if latHi > 90 {
			latHi = 90
		}
		mid := geo.Radians((latLo + latHi) / 2)
		nLon := int(math.Round(360 / cellDeg * math.Cos(mid)))
		if nLon < 1 {
			nLon = 1
		}
		w := 2 * math.Pi / float64(nLon)
		sinMid, cosMid := math.Sincos(mid)
		g.rows = append(g.rows, gridRow{
			start:  int32(start),
			nLon:   int32(nLon),
			width:  w,
			midLat: mid,
			sinMid: sinMid,
			cosMid: cosMid,
			radius: geo.Radians(latHi-latLo)/2 + w/2*cosMid,
		})
		start += nLon
	}
	g.nCells = start
	return g
}

// cellOf maps a geodetic position to its cell id. Latitudes clamp to
// ±90°, longitudes wrap (so +180° and -180° land in the same cell).
func (g *cellGrid) cellOf(latDeg, lonDeg float64) int32 {
	if latDeg < -90 {
		latDeg = -90
	}
	if latDeg > 90 {
		latDeg = 90
	}
	r := int((latDeg + 90) / g.cellDeg)
	if r >= len(g.rows) {
		r = len(g.rows) - 1
	}
	if r < 0 {
		r = 0
	}
	row := &g.rows[r]
	k := int((wrapLon(lonDeg) + 180) / 360 * float64(row.nLon))
	if k >= int(row.nLon) {
		k = int(row.nLon) - 1
	}
	if k < 0 {
		k = 0
	}
	return row.start + int32(k)
}
