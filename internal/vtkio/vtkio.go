// Package vtkio writes solution and coefficient fields as VTK XML
// ImageData (.vti) files with zlib-compressed binary appended data — the
// output path the paper's software stack uses ("ZLib compression library,
// used to write .vtu files in binary format with compression enabled").
// Uniform-grid nodal fields map onto VTK ImageData exactly; the files load
// in ParaView/VisIt for the field visualizations of the paper's Tables
// 3–5 and 7.
package vtkio

import (
	"bytes"
	"compress/zlib"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"mgdiffnet/internal/tensor"
)

// Field pairs a name with a nodal scalar field of shape [R,R] (2D) or
// [R,R,R] (3D). All fields in one file must share a shape.
type Field struct {
	Name string
	Data *tensor.Tensor
}

// WriteImageData writes the fields as one VTK XML ImageData file over the
// unit square/cube (spacing 1/(R−1)). Data is float64, zlib-compressed and
// base64-encoded inline, the standard "binary compressed" VTK XML layout.
func WriteImageData(w io.Writer, fields []Field) error {
	if len(fields) == 0 {
		return fmt.Errorf("vtkio: no fields")
	}
	first := fields[0].Data
	rank := first.Rank()
	if rank != 2 && rank != 3 {
		return fmt.Errorf("vtkio: fields must be rank 2 or 3, got %d", rank)
	}
	res := first.Dim(0)
	for _, f := range fields {
		if !f.Data.SameShape(first) {
			return fmt.Errorf("vtkio: field %q shape %v differs from %v", f.Name, f.Data.Shape(), first.Shape())
		}
		for _, v := range f.Data.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("vtkio: field %q contains non-finite values", f.Name)
			}
		}
	}

	nz := 1
	if rank == 3 {
		nz = res
	}
	h := 1.0 / float64(res-1)
	zext := nz - 1

	fmt.Fprintf(w, "<?xml version=\"1.0\"?>\n")
	fmt.Fprintf(w, "<VTKFile type=\"ImageData\" version=\"1.0\" byte_order=\"LittleEndian\" header_type=\"UInt64\" compressor=\"vtkZLibDataCompressor\">\n")
	fmt.Fprintf(w, "  <ImageData WholeExtent=\"0 %d 0 %d 0 %d\" Origin=\"0 0 0\" Spacing=\"%g %g %g\">\n",
		res-1, res-1, zext, h, h, h)
	fmt.Fprintf(w, "    <Piece Extent=\"0 %d 0 %d 0 %d\">\n", res-1, res-1, zext)
	fmt.Fprintf(w, "      <PointData Scalars=%q>\n", fields[0].Name)
	for _, f := range fields {
		payload, err := compressBlock(f.Data.Data)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "        <DataArray type=\"Float64\" Name=%q format=\"binary\">\n", f.Name)
		fmt.Fprintf(w, "          %s\n", payload)
		fmt.Fprintf(w, "        </DataArray>\n")
	}
	fmt.Fprintf(w, "      </PointData>\n")
	fmt.Fprintf(w, "    </Piece>\n")
	fmt.Fprintf(w, "  </ImageData>\n")
	fmt.Fprintf(w, "</VTKFile>\n")
	return nil
}

// compressBlock produces the VTK single-block compressed payload:
// base64(header) + base64(zlib(data)) with a UInt64 header
// [nblocks=1, blockSize, lastBlockSize, compressedSize].
func compressBlock(vals []float64) (string, error) {
	raw := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	var zbuf bytes.Buffer
	zw := zlib.NewWriter(&zbuf)
	if _, err := zw.Write(raw); err != nil {
		return "", err
	}
	if err := zw.Close(); err != nil {
		return "", err
	}
	header := make([]byte, 32)
	binary.LittleEndian.PutUint64(header[0:], 1)
	binary.LittleEndian.PutUint64(header[8:], uint64(len(raw)))
	binary.LittleEndian.PutUint64(header[16:], uint64(len(raw)))
	binary.LittleEndian.PutUint64(header[24:], uint64(zbuf.Len()))
	return base64.StdEncoding.EncodeToString(header) + base64.StdEncoding.EncodeToString(zbuf.Bytes()), nil
}

// WriteFile writes the fields to path with WriteImageData. The Close
// error is propagated: the OS may not surface a full disk or I/O failure
// until the file is closed, and dropping it would report a truncated
// .vti as written.
func WriteFile(path string, fields []Field) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return WriteImageData(f, fields)
}

// ReadImageData parses a file written by WriteImageData back into named
// fields. It is a purpose-built reader for round-trip verification, not a
// general VTK parser: it understands exactly the layout WriteImageData
// emits.
func ReadImageData(r io.Reader) ([]Field, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	s := string(data)

	extent, err := attrValue(s, "WholeExtent")
	if err != nil {
		return nil, err
	}
	var x0, x1, y0, y1, z0, z1 int
	if _, err := fmt.Sscanf(extent, "%d %d %d %d %d %d", &x0, &x1, &y0, &y1, &z0, &z1); err != nil {
		return nil, fmt.Errorf("vtkio: bad extent %q: %w", extent, err)
	}
	res := x1 + 1
	nz := z1 + 1

	var fields []Field
	rest := s
	for {
		idx := strings.Index(rest, "<DataArray")
		if idx < 0 {
			break
		}
		rest = rest[idx:]
		name, err := attrValue(rest, "Name")
		if err != nil {
			return nil, err
		}
		open := strings.Index(rest, ">")
		closeTag := strings.Index(rest, "</DataArray>")
		if open < 0 || closeTag < 0 {
			return nil, fmt.Errorf("vtkio: malformed DataArray")
		}
		payload := strings.TrimSpace(rest[open+1 : closeTag])
		vals, err := decompressBlock(payload)
		if err != nil {
			return nil, fmt.Errorf("vtkio: field %q: %w", name, err)
		}
		var t *tensor.Tensor
		if nz == 1 {
			t = tensor.FromSlice(vals, res, res)
		} else {
			t = tensor.FromSlice(vals, nz, res, res)
		}
		fields = append(fields, Field{Name: name, Data: t})
		rest = rest[closeTag+len("</DataArray>"):]
	}
	if len(fields) == 0 {
		return nil, fmt.Errorf("vtkio: no DataArray elements found")
	}
	return fields, nil
}

// ReadFile reads a .vti written by WriteFile.
func ReadFile(path string) ([]Field, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadImageData(f)
}

func decompressBlock(payload string) ([]float64, error) {
	// Header: base64 of 32 bytes = 44 base64 chars.
	if len(payload) < 44 {
		return nil, fmt.Errorf("payload too short")
	}
	header, err := base64.StdEncoding.DecodeString(payload[:44])
	if err != nil {
		return nil, err
	}
	rawLen := binary.LittleEndian.Uint64(header[8:])
	body, err := base64.StdEncoding.DecodeString(payload[44:])
	if err != nil {
		return nil, err
	}
	zr, err := zlib.NewReader(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	if uint64(len(raw)) != rawLen {
		return nil, fmt.Errorf("decompressed %d bytes, header says %d", len(raw), rawLen)
	}
	vals := make([]float64, len(raw)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return vals, nil
}

// attrValue extracts the first attr="value" occurrence after the start of s.
func attrValue(s, attr string) (string, error) {
	key := attr + "=\""
	i := strings.Index(s, key)
	if i < 0 {
		return "", fmt.Errorf("vtkio: attribute %q not found", attr)
	}
	rest := s[i+len(key):]
	j := strings.Index(rest, "\"")
	if j < 0 {
		return "", fmt.Errorf("vtkio: unterminated attribute %q", attr)
	}
	return rest[:j], nil
}
