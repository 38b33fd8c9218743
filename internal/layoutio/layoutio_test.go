package layoutio

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"inductance101/internal/geom"
	"inductance101/internal/grid"
)

const sampleDoc = `{
  "layers": [
    {"name":"M5","z":4e-6,"thickness":0.9e-6,"sheet_rho":0.025,"h_below":1e-6},
    {"name":"M6","z":6e-6,"thickness":1.2e-6,"sheet_rho":0.018,"h_below":1.1e-6}
  ],
  "segments": [
    {"layer":0,"dir":"X","x0":0,"y0":0,"length":1e-3,"width":2e-6,
     "net":"clk","node_a":"a","node_b":"b"},
    {"layer":1,"dir":"Y","x0":0,"y0":0,"length":5e-4,"width":3e-6,
     "net":"GND","node_a":"g0","node_b":"g1"}
  ],
  "vias": [
    {"x":0,"y":0,"layer_lo":0,"layer_hi":1,"resistance":0.5,
     "net":"GND","node_lo":"b","node_hi":"g0"}
  ]
}`

func TestReadSample(t *testing.T) {
	lay, err := Read(strings.NewReader(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(lay.Layers) != 2 || len(lay.Segments) != 2 || len(lay.Vias) != 1 {
		t.Fatalf("counts: %d layers, %d segs, %d vias",
			len(lay.Layers), len(lay.Segments), len(lay.Vias))
	}
	if lay.Segments[0].Dir != geom.DirX || lay.Segments[1].Dir != geom.DirY {
		t.Errorf("directions wrong")
	}
	if lay.Segments[0].Length != 1e-3 {
		t.Errorf("length = %g", lay.Segments[0].Length)
	}
}

func TestRoundTrip(t *testing.T) {
	m, err := grid.BuildPowerGrid(grid.StandardLayers(), grid.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, m.Layout); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Segments) != len(m.Layout.Segments) || len(back.Vias) != len(m.Layout.Vias) {
		t.Fatalf("round trip lost elements")
	}
	for i := range back.Segments {
		a, b := &back.Segments[i], &m.Layout.Segments[i]
		if *a != *b {
			t.Fatalf("segment %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

// planeLayout is a signal over a perforated plane with three edge
// rails.
func planeLayout() *geom.Layout {
	lay := geom.NewLayout(grid.StandardLayers())
	lay.AddSegment(geom.Segment{
		Layer: 1, Dir: geom.DirX, X0: 0, Y0: 0,
		Length: 1e-3, Width: 2e-6, Net: "sig", NodeA: "s0", NodeB: "s1",
	})
	lay.AddPlane(geom.Plane{
		Layer: 0, X0: 0, Y0: -20e-6, X1: 1e-3, Y1: 20e-6,
		Net: "GND", NodeLeft: "p0", NodeRight: "p1", NodeTop: "pt",
		Holes: []geom.Hole{
			{X0: 2e-4, Y0: -5e-6, X1: 3e-4, Y1: 5e-6},
			{X0: 6e-4, Y0: -8e-6, X1: 7e-4, Y1: 8e-6},
		},
	})
	return lay
}

// TestPlaneRoundTrip drives a plane with holes and edge rails through
// the wire schema and back: every field must survive, and the parsed
// layout must pass geometry validation.
func TestPlaneRoundTrip(t *testing.T) {
	lay := planeLayout()
	if err := lay.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, lay); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Planes) != 1 {
		t.Fatalf("round trip lost the plane: %d planes", len(back.Planes))
	}
	got, want := &back.Planes[0], &lay.Planes[0]
	if got.Layer != want.Layer || got.X0 != want.X0 || got.Y1 != want.Y1 ||
		got.Net != want.Net || got.NodeLeft != want.NodeLeft ||
		got.NodeRight != want.NodeRight || got.NodeBottom != want.NodeBottom ||
		got.NodeTop != want.NodeTop {
		t.Errorf("plane mismatch: %+v vs %+v", got, want)
	}
	if len(got.Holes) != 2 || got.Holes[0] != want.Holes[0] || got.Holes[1] != want.Holes[1] {
		t.Errorf("holes mismatch: %+v vs %+v", got.Holes, want.Holes)
	}
}

// invalidDocs are documents Read must reject.
var invalidDocs = []string{
	``,
	`{}`,
	`{"layers":[{"name":"M","z":0,"thickness":0,"sheet_rho":1,"h_below":1}]}`,
	`{"layers":[{"name":"M","z":0,"thickness":1e-6,"sheet_rho":0.1,"h_below":1e-6}],
		  "segments":[{"layer":0,"dir":"Z","x0":0,"y0":0,"length":1,"width":1,
		               "net":"n","node_a":"a","node_b":"b"}]}`,
	`{"layers":[{"name":"M","z":0,"thickness":1e-6,"sheet_rho":0.1,"h_below":1e-6}],
		  "segments":[{"layer":5,"dir":"X","x0":0,"y0":0,"length":1,"width":1,
		               "net":"n","node_a":"a","node_b":"b"}]}`,
	`{"layers":[{"name":"M","z":0,"thickness":1e-6,"sheet_rho":0.1,"h_below":1e-6}],
		  "segments":[{"layer":0,"dir":"X","x0":0,"y0":0,"length":0,"width":1,
		               "net":"n","node_a":"a","node_b":"b"}]}`,
	`{"unknown_field": 1}`,
	// Plane rejections: layer out of range, empty extent, all four
	// rails floating, hole outside the plane extent.
	`{"layers":[{"name":"M","z":0,"thickness":1e-6,"sheet_rho":0.1,"h_below":1e-6}],
		  "planes":[{"layer":3,"x0":0,"y0":0,"x1":1e-3,"y1":1e-3,"node_left":"p0"}]}`,
	`{"layers":[{"name":"M","z":0,"thickness":1e-6,"sheet_rho":0.1,"h_below":1e-6}],
		  "planes":[{"layer":0,"x0":0,"y0":0,"x1":0,"y1":1e-3,"node_left":"p0"}]}`,
	`{"layers":[{"name":"M","z":0,"thickness":1e-6,"sheet_rho":0.1,"h_below":1e-6}],
		  "planes":[{"layer":0,"x0":0,"y0":0,"x1":1e-3,"y1":1e-3}]}`,
	`{"layers":[{"name":"M","z":0,"thickness":1e-6,"sheet_rho":0.1,"h_below":1e-6}],
		  "planes":[{"layer":0,"x0":0,"y0":0,"x1":1e-3,"y1":1e-3,"node_left":"p0",
		             "holes":[{"x0":-1e-4,"y0":0,"x1":1e-4,"y1":1e-4}]}]}`,
}

func TestReadErrors(t *testing.T) {
	for i, c := range invalidDocs {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted invalid document", i)
		}
	}
}

// FuzzLayoutJSON throws arbitrary bytes at Read, the entry point of
// every tool that takes a layout file. Read must never panic, and any
// document it accepts must survive Write and a second Read unchanged.
func FuzzLayoutJSON(f *testing.F) {
	f.Add([]byte(sampleDoc))
	var buf bytes.Buffer
	if err := Write(&buf, planeLayout()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// A plane with rails on all four edges, tied to a segment by a via.
	f.Add([]byte(`{"layers":[{"name":"M1","z":1e-6,"thickness":1e-6,"sheet_rho":0.05,"h_below":1e-6},
	  {"name":"M2","z":3e-6,"thickness":1e-6,"sheet_rho":0.02,"h_below":1e-6}],
	 "segments":[{"layer":1,"dir":"y","x0":5e-5,"y0":0,"length":2e-4,"width":2e-6,"net":"s","node_a":"a","node_b":"b"}],
	 "planes":[{"layer":0,"x0":0,"y0":0,"x1":1e-4,"y1":1e-4,"net":"GND",
	   "node_left":"l","node_right":"r","node_bottom":"d","node_top":"u",
	   "holes":[{"x0":2e-5,"y0":2e-5,"x1":4e-5,"y1":4e-5}]}],
	 "vias":[{"x":5e-5,"y":0,"layer_lo":0,"layer_hi":1,"resistance":0.5,"net":"GND","node_lo":"d","node_hi":"a"}]}`))
	for _, doc := range invalidDocs {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		lay, err := Read(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, lay); err != nil {
			t.Fatalf("accepted layout does not serialize: %v", err)
		}
		back, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-read of a written layout failed: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(FromLayout(back), FromLayout(lay)) {
			t.Fatalf("Write→Read changed the layout:\n%s", out.Bytes())
		}
	})
}
