package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// frameBytes encodes one frame as writeFrameLocked lays it out.
func frameBytes(kind byte, n uint32, payload []byte) []byte {
	b := []byte{kind, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(b[1:], n)
	return append(b, payload...)
}

// FuzzReadFrame holds readFrame to its contract on any byte stream: the
// exact frame the stream starts with, or a typed error — never a panic,
// and never a buffer much larger than the bytes that arrived. The
// committed seeds are a truncated header, a length above what the stream
// holds, a data frame whose length is not a multiple of 8, an abort frame
// whose length is not a multiple of 4, and an unknown kind.
func FuzzReadFrame(f *testing.F) {
	f.Add(frameBytes(frameData, 16, make([]byte, 16)))
	f.Add(frameBytes(frameAbort, 8, []byte{0, 0, 0, 1, 0, 0, 0, 2}))
	f.Add(frameBytes(frameHeartbeat, 0, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, err := readFrame(bytes.NewReader(data), nil)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
				t.Fatalf("untyped error %v", err)
			}
		} else {
			n := int(binary.BigEndian.Uint32(data[1:]))
			if kind != data[0] || !bytes.Equal(payload, data[frameHeaderLen:frameHeaderLen+n]) {
				t.Fatalf("frame kind %d with %d bytes, stream holds kind %d with %d", kind, len(payload), data[0], n)
			}
		}
		if limit := max(2*len(data), frameChunk) + 4096; cap(payload) > limit {
			t.Fatalf("payload buffer of %d bytes for a %d-byte stream", cap(payload), len(data))
		}
	})
}

// A header that claims 2 GiB followed by ten bytes costs about frameChunk,
// not the claim; the reader reports the frame cut short.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	data := frameBytes(frameData, maxFramePayload, make([]byte, 10))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, _, err := readFrame(bytes.NewReader(data), nil)
	runtime.ReadMemStats(&m1)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("error %v, want io.ErrUnexpectedEOF", err)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 2*frameChunk {
		t.Fatalf("reading a 2 GiB claim over 10 bytes allocated %d bytes", got)
	}
}

// A frame larger than the buffer and than one chunk arrives whole, and a
// held buffer is reused for the next frame.
func TestReadFrameGrowsAndReuses(t *testing.T) {
	big := make([]byte, 3*frameChunk+8)
	for i := range big {
		big[i] = byte(i * 7)
	}
	stream := append(frameBytes(frameData, uint32(len(big)), big), frameBytes(frameAbort, 4, []byte{0, 0, 0, 3})...)
	r := bytes.NewReader(stream)
	kind, payload, err := readFrame(r, make([]byte, 0, 64))
	if err != nil || kind != frameData || !bytes.Equal(payload, big) {
		t.Fatalf("big frame: kind %d, %d bytes, err %v", kind, len(payload), err)
	}
	held := &payload[:1][0]
	kind, payload, err = readFrame(r, payload)
	if err != nil || kind != frameAbort || !bytes.Equal(payload, []byte{0, 0, 0, 3}) || &payload[0] != held {
		t.Fatalf("second frame: kind %d, payload %v, err %v, reused %v", kind, payload, err, &payload[0] == held)
	}
	if _, _, err := readFrame(r, payload); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

// FuzzParseHello holds parseHello to its contract on any byte string: the
// sender's rank, in [0, world), for a hello of this world, and an error
// for anything else — never a panic. A hello of this world is exactly what
// helloFrame encodes for a rank below the world size. The committed seeds
// are a valid hello, a wrong magic, a wrong world size, a wrong address
// hash, and a rank equal to the world size.
func FuzzParseHello(f *testing.F) {
	const world = 3
	hash := worldHash([]string{"a:1", "b:2", "c:3"})
	f.Fuzz(func(t *testing.T, data []byte) {
		rank, err := parseHello(data, world, hash)
		claimed := -1
		if len(data) == frameHeaderLen+helloBytes {
			claimed = int(binary.BigEndian.Uint32(data[13:]))
		}
		valid := claimed >= 0 && claimed < world && bytes.Equal(data, helloFrame(world, claimed, hash))
		switch {
		case valid && (err != nil || rank != claimed):
			t.Fatalf("hello from rank %d of this world: rank %d, err %v", claimed, rank, err)
		case !valid && err == nil:
			t.Fatalf("accepted %x as a hello from rank %d", data, rank)
		}
	})
}
