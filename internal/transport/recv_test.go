package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"testing"
	"time"
)

// frameOf prefixes a frame payload with its length, as the wire does.
func frameOf(b []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(b))), b...)
}

// rawResponse builds a response frame payload whose declared payload
// length (plen) need not match the payload bytes that follow it.
func rawResponse(r *Response, plen int, payload []byte) []byte {
	b := appendResponseHead(nil, r, plen)
	b = append(b, payload...)
	return appendResponseTail(b, r)
}

// recvConn is a receive-only binary Conn over a byte stream.
func recvConn(stream []byte, bufSize int) *Conn {
	return &Conn{br: bufio.NewReaderSize(bytes.NewReader(stream), bufSize), recvBin: true, detected: true}
}

// Hostile frames on the direct-landing path fail the connection with a
// decode error: every waiter sees a closed channel, and not one byte
// lands in — or past — a registered destination.
func TestRecvIntoHostileFrames(t *testing.T) {
	ok := &Response{Seq: 1, N: 16}
	cases := []struct {
		name  string
		frame []byte
	}{
		{"payload length overruns the frame", rawResponse(ok, 100, make([]byte, 10))[:20]},
		{"head overruns the frame", []byte{1, 5, 'a', 'b'}},
		{"truncated seq varint", []byte{0x80}},
		{"empty frame", nil},
		{"payload overruns the destination", rawResponse(&Response{Seq: 1, N: 17}, 17, make([]byte, 17))},
		{"payload overruns the destination, long head", rawResponse(&Response{Seq: 1, Err: string(make([]byte, 8<<10)), N: 17}, 17, make([]byte, 17))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer b.Close()
			mc := newMuxConn(NewBinaryConn(a), nil)
			defer mc.Close()
			go func() {
				peer := NewConn(b)
				for i := 0; i < 2; i++ {
					if _, err := peer.RecvRequest(); err != nil {
						return
					}
				}
				b.Write(append(binMagic[:], frameOf(tc.frame)...))
			}()
			// dst is two 8-byte windows of a larger backing array, so a
			// write past either shows in the guard bytes around them.
			backing := bytes.Repeat([]byte{0xee}, 48)
			dst := [][]byte{backing[8:16], backing[24:32]}
			ch1, err := mc.StartInto(&Request{Type: MsgRead, Seq: 1, Size: 16}, dst)
			if err != nil {
				t.Fatal(err)
			}
			ch2, err := mc.Start(&Request{Type: MsgStat, Seq: 2})
			if err != nil {
				t.Fatal(err)
			}
			for i, ch := range []chan *Response{ch1, ch2} {
				select {
				case resp, open := <-ch:
					if open {
						t.Fatalf("waiter %d got a response %+v, want a closed channel", i+1, resp)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("waiter %d never failed", i+1)
				}
			}
			if !mc.Dead() {
				t.Fatal("a decode error must fail the connection")
			}
			if !bytes.Equal(backing, bytes.Repeat([]byte{0xee}, 48)) {
				t.Fatalf("hostile frame wrote into the destination: %x", backing)
			}
		})
	}
}

// Replies land in the registered iovecs, whatever their length up to
// the destination's: a full data reply, a short one, an error reply,
// one whose head is longer than the read buffer (the decode-whole
// fallback), and a gob-coded one (the one-copy fallback).
func TestRecvIntoLands(t *testing.T) {
	payload := make([]byte, 40<<10)
	for i := range payload {
		payload[i] = byte(i*13 + 1)
	}
	for _, tc := range []struct {
		name string
		resp *Response
	}{
		{"full", &Response{Seq: 4, N: int64(len(payload)), Data: payload, Caps: CapAppendAt}},
		{"short", &Response{Seq: 4, N: 100, Data: payload[:100]}},
		{"error", &Response{Seq: 4, Err: "no such file or directory"}},
		{"long head", &Response{Seq: 4, Err: string(bytes.Repeat([]byte{'x'}, 6<<10)), N: 5, Data: payload[:5]}},
	} {
		for _, gob := range []bool{false, true} {
			var stream []byte
			if gob {
				var buf bytes.Buffer
				w := NewConn(nil)
				w.w = &buf
				if err := w.SendResponse(tc.resp); err != nil {
					t.Fatal(err)
				}
				stream = buf.Bytes()
			} else {
				stream = frameOf(appendResponse(nil, tc.resp))
			}
			c := &Conn{br: bufio.NewReader(bytes.NewReader(stream)), recvBin: !gob, detected: true}
			got := make([]byte, len(payload)+1)
			dst := [][]byte{got[:1000], got[1000:1000], got[1000:]}
			var claimed uint64
			r, err := c.recvResponseInto(func(seq uint64) [][]byte { claimed = seq; return dst })
			if err != nil {
				t.Fatalf("%s gob=%v: %v", tc.name, gob, err)
			}
			if claimed != 4 || r.Seq != 4 || r.N != tc.resp.N || r.Err != tc.resp.Err || r.Caps != tc.resp.Caps {
				t.Fatalf("%s gob=%v: claimed %d, got %+v", tc.name, gob, claimed, r)
			}
			if r.Data != nil || r.frame != nil {
				t.Fatalf("%s gob=%v: a landed reply must carry no Data and no lease", tc.name, gob)
			}
			if !bytes.Equal(got[:len(tc.resp.Data)], tc.resp.Data) {
				t.Fatalf("%s gob=%v: payload did not land in dst", tc.name, gob)
			}
			if rest := got[len(tc.resp.Data):]; !bytes.Equal(rest, make([]byte, len(rest))) {
				t.Fatalf("%s gob=%v: bytes past the payload were written", tc.name, gob)
			}
		}
	}
}

// loopReader replays one byte string forever: a steady stream of
// identical frames.
type loopReader struct {
	b   []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.b[l.off:])
	l.off = (l.off + n) % len(l.b)
	return n, nil
}

// The receive-side pin beside TestEncodeAllocs: a steady stream of
// 512 KiB read replies lands in registered iovecs with one allocation
// per frame (the Response itself) and no payload lease.
func TestRecvIntoAllocs(t *testing.T) {
	payload := make([]byte, 512<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	frame := frameOf(appendResponse(nil, &Response{Seq: 9, N: int64(len(payload)), Data: payload}))
	c := &Conn{br: bufio.NewReader(&loopReader{b: frame}), recvBin: true, detected: true}
	got := make([]byte, len(payload))
	dst := [][]byte{got[:200<<10], got[200<<10 : 300<<10], got[300<<10:]}
	claim := func(uint64) [][]byte { return dst }
	recv := func() {
		r, err := c.recvResponseInto(claim)
		if err != nil {
			t.Fatal(err)
		}
		if r.N != int64(len(payload)) || r.Data != nil {
			t.Fatalf("got N=%d, %d Data bytes", r.N, len(r.Data))
		}
	}
	for i := 0; i < 4; i++ {
		recv()
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload did not land in dst")
	}
	gets, _ := LeaseStats()
	if n := testing.AllocsPerRun(100, recv); n != 1 {
		t.Fatalf("512 KiB read reply into iovecs = %v allocs/op, want 1", n)
	}
	if after, _ := LeaseStats(); after != gets {
		t.Fatalf("%d leases taken landing replies in registered iovecs, want 0", after-gets)
	}
}

// FuzzResponseDecode holds the split receive path (head from a peek,
// payload into registered iovecs, tail decoded after) to decodeResponse
// on the same frame payload: both fail, or both yield equal fields and
// payload bytes. bufSize shrinks the read buffer so heads that do not
// fit it take the decode-whole fallback; cut splits the destination.
func FuzzResponseDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte, bufSize, cut uint16) {
		var want Response
		werr := decodeResponse(b, &want)
		size := 16 + int(bufSize)%4096
		land := func(dstLen int) (*Response, []byte, error) {
			got := make([]byte, dstLen)
			k := int(cut) % (dstLen + 1)
			c := recvConn(frameOf(b), size)
			r, err := c.recvResponseInto(func(uint64) [][]byte { return [][]byte{got[:k], got[k:]} })
			return r, got, err
		}
		if werr != nil {
			if _, _, err := land(len(b)); err == nil {
				t.Fatalf("split path accepted a frame decodeResponse rejects (%v)", werr)
			}
			if _, err := recvConn(frameOf(b), size).recvResponseInto(nil); err == nil {
				t.Fatalf("leased path accepted a frame decodeResponse rejects (%v)", werr)
			}
			return
		}
		payload := want.Data
		want.Data = nil
		r, got, err := land(len(payload))
		if err != nil {
			t.Fatalf("split path rejects a frame decodeResponse accepts: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("landed payload differs")
		}
		if !reflect.DeepEqual(*r, want) {
			t.Fatalf("split path fields %+v, decodeResponse %+v", *r, want)
		}
		if len(payload) > 0 {
			if _, _, err := land(len(payload) - 1); err == nil {
				t.Fatal("a payload larger than the destination was accepted")
			}
		}
		r, err = recvConn(frameOf(b), size).recvResponseInto(nil)
		if err != nil {
			t.Fatalf("leased path rejects a frame decodeResponse accepts: %v", err)
		}
		if !bytes.Equal(r.Data, payload) {
			t.Fatal("leased path payload differs")
		}
		r.Release()
		if !reflect.DeepEqual(*r, want) {
			t.Fatalf("leased path fields %+v, decodeResponse %+v", *r, want)
		}
	})
}
