package vtkio

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mgdiffnet/internal/field"
	"mgdiffnet/internal/tensor"
)

func TestRoundTrip2D(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const res = 17
	u := tensor.New(res, res)
	nu := tensor.New(res, res)
	for i := range u.Data {
		u.Data[i] = rng.Float64()
		nu.Data[i] = 1 + rng.Float64()
	}
	var buf bytes.Buffer
	if err := WriteImageData(&buf, []Field{{"u", u}, {"nu", nu}}); err != nil {
		t.Fatal(err)
	}
	fields, err := ReadImageData(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 2 || fields[0].Name != "u" || fields[1].Name != "nu" {
		t.Fatalf("fields %+v", fields)
	}
	if d := fields[0].Data.RMSE(u); d != 0 {
		t.Fatalf("u round trip RMSE %v", d)
	}
	if d := fields[1].Data.RMSE(nu); d != 0 {
		t.Fatalf("nu round trip RMSE %v", d)
	}
}

func TestRoundTrip3D(t *testing.T) {
	w := field.Omega{0.5, -1, 1, -0.5}
	f := field.Raster(w, 3, 9)
	var buf bytes.Buffer
	if err := WriteImageData(&buf, []Field{{"nu", f}}); err != nil {
		t.Fatal(err)
	}
	fields, err := ReadImageData(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fields[0].Data.Rank() != 3 {
		t.Fatalf("rank %d", fields[0].Data.Rank())
	}
	if d := fields[0].Data.RMSE(f); d != 0 {
		t.Fatalf("3D round trip RMSE %v", d)
	}
}

func TestXMLStructure(t *testing.T) {
	u := tensor.Full(0.5, 5, 5)
	var buf bytes.Buffer
	if err := WriteImageData(&buf, []Field{{"u", u}}); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{
		`<VTKFile type="ImageData"`,
		`compressor="vtkZLibDataCompressor"`,
		`WholeExtent="0 4 0 4 0 0"`,
		`Spacing="0.25 0.25 0.25"`,
		`<DataArray type="Float64" Name="u" format="binary">`,
		`</VTKFile>`,
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestCompressionActuallyCompresses(t *testing.T) {
	// A constant field compresses to a tiny payload; the file must be far
	// smaller than the raw 8·N bytes.
	const res = 64
	u := tensor.Full(1, res, res)
	var buf bytes.Buffer
	if err := WriteImageData(&buf, []Field{{"u", u}}); err != nil {
		t.Fatal(err)
	}
	raw := 8 * res * res
	if buf.Len() > raw/4 {
		t.Fatalf("file %d bytes, raw %d — compression ineffective", buf.Len(), raw)
	}
}

func TestWriteErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteImageData(&buf, nil); err == nil {
		t.Fatal("expected error for no fields")
	}
	bad := tensor.New(4)
	if err := WriteImageData(&buf, []Field{{"x", bad}}); err == nil {
		t.Fatal("expected error for rank-1 field")
	}
	a, b := tensor.New(4, 4), tensor.New(5, 5)
	if err := WriteImageData(&buf, []Field{{"a", a}, {"b", b}}); err == nil {
		t.Fatal("expected error for shape mismatch")
	}
	nan := tensor.New(4, 4)
	nan.Data[3] = math.NaN()
	if err := WriteImageData(&buf, []Field{{"n", nan}}); err == nil {
		t.Fatal("expected error for NaN field")
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := ReadImageData(strings.NewReader("<xml>junk</xml>")); err == nil {
		t.Fatal("expected error for junk input")
	}
	if _, err := ReadImageData(strings.NewReader("")); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestWriteReadFile(t *testing.T) {
	path := t.TempDir() + "/out.vti"
	u := tensor.Full(2, 6, 6)
	if err := WriteFile(path, []Field{{"u", u}}); err != nil {
		t.Fatal(err)
	}
	fields, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fields[0].Data.RMSE(u) != 0 {
		t.Fatal("file round trip mismatch")
	}
	if _, err := ReadFile(path + ".missing"); err == nil {
		t.Fatal("expected missing-file error")
	}
}
