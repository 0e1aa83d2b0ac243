package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"testing"

	"skalla/internal/engine"
	"skalla/internal/gmdj"
	"skalla/internal/relation"
)

// blockSite is a Backend whose operator reply is one fixed block, so what an
// operator stream allocates around it is the transport's alone.
type blockSite struct {
	*engine.Site
	block *relation.Relation
}

func (b blockSite) EvalOperatorBlocks(_ context.Context, _ engine.OperatorRequest, emit func(*relation.Relation) error) error {
	return emit(b.block)
}

// hBlock is an H_i-shaped block of n rows: an ordinal, a COUNT, a FLOAT sum
// and a STRING.
func hBlock(n int) *relation.Relation {
	r := relation.New(relation.MustSchema(
		relation.Column{Name: "ord", Kind: relation.KindInt},
		relation.Column{Name: "cnt", Kind: relation.KindInt},
		relation.Column{Name: "sum", Kind: relation.KindFloat},
		relation.Column{Name: "min", Kind: relation.KindString},
	))
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Tuple{relation.NewInt(int64(i)), relation.NewInt(int64(i % 7)),
			relation.NewFloat(float64(i) / 3), relation.NewString(fmt.Sprintf("clerk-%05d", i))})
	}
	return r
}

// freshStream is the block part of site's reply stream to req as a fresh
// encoder writes it: per block a marker and its frame.
func freshStream(t *testing.T, site Backend, req engine.OperatorRequest) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	enc := relation.NewEncoder(w)
	err := site.EvalOperatorBlocks(context.Background(), req, func(b *relation.Relation) error {
		if err := w.WriteByte(opStreamBlock); err != nil {
			return err
		}
		return enc.Encode(b)
	})
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOperatorStreamsShareTheConnectionsCodec: the second and third operator
// streams on one connection write the blocks a fresh encoder writes, byte for
// byte, though the connection's encoder serves every stream. The loop under
// test, serveConn, is the one an in-process site's pipe runs too.
func TestOperatorStreamsShareTheConnectionsCodec(t *testing.T) {
	req := opRequest()
	req.BlockRows = 1 // three blocks: one inline schema, two cached
	want := freshStream(t, testSite(t, 0), req)

	t.Run("tcp", func(t *testing.T) {
		srv, err := Serve(testSite(t, 0), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		conn := dialRaw(t, srv.Addr())
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		frames := relation.NewFrameReader(br)
		send := func(req *Request) {
			if err := writeRequest(bw, req); err != nil {
				t.Fatal(err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		send(&Request{Kind: KindHello, Version: ProtocolVersion})
		if _, err := readReply(frames, KindHello, nil); err != nil {
			t.Fatal(err)
		}
		for stream := 1; stream <= 3; stream++ {
			send(&Request{Kind: KindOperator, Operator: &req})
			var got []byte
			for {
				marker, err := br.ReadByte()
				if err != nil {
					t.Fatal(err)
				}
				if marker == opStreamEnd {
					break
				}
				body, err := frames.Next()
				if err != nil {
					t.Fatal(err)
				}
				got = append(binary.AppendUvarint(append(got, marker), uint64(len(body))), body...)
			}
			if _, err := readReply(frames, KindOperator, nil); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("stream %d: blocks differ from a fresh encoder's\n got %x\nwant %x", stream, got, want)
			}
		}
	})
}

// TestWarmOperatorStreamAllocatesNoCodecBody: once a connection has carried
// a stream, another allocates as often for a 20 000-row block as for a
// 10-row one — the encoder's and decoder's bodies are the connection's, not
// regrown per stream — in process and over TCP.
func TestWarmOperatorStreamAllocatesNoCodecBody(t *testing.T) {
	ctx := context.Background()
	req := engine.OperatorRequest{Base: relation.New(relation.MustSchema(relation.Column{Name: "g", Kind: relation.KindInt})),
		Op: gmdj.Operator{Detail: "T"}}
	perStream := func(t *testing.T, rows int, dial func(Backend) Site) float64 {
		site := dial(blockSite{Site: testSite(t, 0), block: hBlock(rows)})
		stream := func() {
			if _, err := site.EvalOperatorStream(ctx, req, func(*relation.Relation) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		stream()
		return testing.AllocsPerRun(20, stream)
	}
	for name, dial := range map[string]func(Backend) Site{
		"local": func(b Backend) Site { return localSite(t, b) },
		"tcp": func(b Backend) Site {
			srv, err := Serve(b, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			cli, err := Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cli.Close() })
			return cli
		},
	} {
		t.Run(name, func(t *testing.T) {
			small, large := perStream(t, 10, dial), perStream(t, 20_000, dial)
			if large > small+1 {
				t.Errorf("a warm stream allocates %.1f times for a 20 000-row block, %.1f for a 10-row one", large, small)
			}
		})
	}
}

// TestSharedFrameIsWrittenNotCopied: a request carrying a shared frame larger
// than the buffer a connection keeps writes the frame's own bytes, so sending
// it again allocates far less than the frame, and the message reads back with
// exactly that frame.
func TestSharedFrameIsWrittenNotCopied(t *testing.T) {
	base := hBlock(100_000)
	base.ShareFrame()
	frame, err := base.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) <= 1<<20 {
		t.Fatalf("a %d-byte frame is within the kept buffer's cap", len(frame))
	}
	req := &Request{Kind: KindOperator, QueryID: "q", Round: "MD1",
		Operator: &engine.OperatorRequest{Base: base, Op: gmdj.Operator{Detail: "T"}}}
	var out msgBuf
	var sink bytes.Buffer
	send := func() {
		sink.Reset()
		if err := out.writeRequest(&sink, req); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if got := allocatedBy(send); got > uint64(len(frame))/4 {
		t.Errorf("sending a %d-byte shared frame again allocates %d bytes", len(frame), got)
	}
	got, err := readRequest(relation.NewFrameReader(&sink), nil)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := relation.Marshal(got.Operator.Base); err != nil || !bytes.Equal(again, frame) {
		t.Errorf("the request's base does not re-encode to the shared frame (err %v)", err)
	}
}
