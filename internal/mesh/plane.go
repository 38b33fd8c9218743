package mesh

import (
	"fmt"

	"inductance101/internal/geom"
)

// lowerPlane meshes one conductor plane into overlapping X- and
// Y-directed filament grids with shared nodes at the grid
// intersections — FastHenry's uniform-plane model. A regular node grid
// is laid over the plane at a pitch of (narrow span)/PlaneNW; every
// horizontally adjacent node pair is joined by an X filament of width
// equal to the row pitch, every vertically adjacent pair by a Y
// filament of width equal to the column pitch, so each metal patch is
// represented once per current direction and the solve redistributes
// current between the two grids freely.
//
// Holes remove the nodes strictly inside them and any filament whose
// endpoint is gone or whose midpoint falls in a hole, forcing return
// current to detour around the perforation. Boundary nodes on an edge
// with a named rail all collapse onto that rail's electrical node
// (corners resolve in left, right, bottom, top priority order), and
// filaments running along such an edge — both ends on the same rail —
// are dropped as electrically degenerate.
func (m *Mesh) lowerPlane(l *geom.Layout, pi int, opt Options) error {
	p := &l.Planes[pi]
	ly := l.Layers[p.Layer]
	w, h := p.X1-p.X0, p.Y1-p.Y0
	// PlaneNW cells along each axis regardless of aspect ratio
	// (FastHenry's seg1/seg2 plane parameters collapsed to one knob):
	// solve cost grows with the filament and node counts, so the grid
	// must stay bounded by the user's density choice, not by the
	// plane's shape.
	nx := opt.planeNW() + 1
	ny := opt.planeNW() + 1
	if nx*ny > maxPlaneNodes {
		return fmt.Errorf("mesh: plane %d meshes to %d x %d nodes (limit %d); reduce PlaneNW", pi, nx, ny, maxPlaneNodes)
	}
	dx := w / float64(nx-1)
	dy := h / float64(ny-1)
	zc := ly.Z + ly.Thickness/2

	inHole := func(x, y float64) bool {
		for _, hl := range p.Holes {
			if hl.Contains(x, y) {
				return true
			}
		}
		return false
	}

	// ids[j*nx+i] is the node id of grid point (i, j), or -1 where a
	// hole removed the node.
	ids := make([]int, nx*ny)
	for j := 0; j < ny; j++ {
		y := p.Y0 + float64(j)*dy
		for i := 0; i < nx; i++ {
			x := p.X0 + float64(i)*dx
			k := j*nx + i
			switch {
			case inHole(x, y):
				ids[k] = -1
			case i == 0 && p.NodeLeft != "":
				ids[k] = m.Node(p.NodeLeft)
			case i == nx-1 && p.NodeRight != "":
				ids[k] = m.Node(p.NodeRight)
			case j == 0 && p.NodeBottom != "":
				ids[k] = m.Node(p.NodeBottom)
			case j == ny-1 && p.NodeTop != "":
				ids[k] = m.Node(p.NodeTop)
			default:
				ids[k] = m.anonNode()
			}
		}
	}

	// Sheet-resistance form of R = rho l / (w t): the thickness cancels,
	// leaving SheetRho * length / width per grid filament.
	add := func(dir geom.Direction, x0, y0, length, width float64, na, nb int) {
		m.Filaments = append(m.Filaments, Filament{
			Seg: -1, Plane: pi, Dir: dir,
			X0: x0, Y0: y0, Z: zc,
			Length: length, W: width, T: ly.Thickness,
			R:     ly.SheetRho * length / width,
			NodeA: na, NodeB: nb,
		})
	}
	// X grid: rows bottom to top, columns left to right.
	for j := 0; j < ny; j++ {
		y := p.Y0 + float64(j)*dy
		for i := 0; i+1 < nx; i++ {
			x := p.X0 + float64(i)*dx
			na, nb := ids[j*nx+i], ids[j*nx+i+1]
			if na < 0 || nb < 0 || na == nb || inHole(x+dx/2, y) {
				continue
			}
			add(geom.DirX, x, y, dx, dy, na, nb)
		}
	}
	// Y grid: columns left to right, rows bottom to top.
	for i := 0; i < nx; i++ {
		x := p.X0 + float64(i)*dx
		for j := 0; j+1 < ny; j++ {
			y := p.Y0 + float64(j)*dy
			na, nb := ids[j*nx+i], ids[(j+1)*nx+i]
			if na < 0 || nb < 0 || na == nb || inHole(x, y+dy/2) {
				continue
			}
			add(geom.DirY, x, y, dy, dx, na, nb)
		}
	}
	return nil
}
