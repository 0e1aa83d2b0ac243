package transport

import (
	"context"
	"errors"
	"testing"

	"skalla/internal/engine"
	"skalla/internal/relation"
)

// streamSites builds the three transport flavours over identical site data.
func streamSites(t *testing.T) map[string]Site {
	t.Helper()
	out := map[string]Site{
		"local": NewLocalSite(testSite(t, 0)),
		"fast":  NewFastLocalSite(testSite(t, 0)),
	}
	srv, err := Serve(testSite(t, 0), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	out["tcp"] = cli
	return out
}

func TestEvalOperatorStreamBlocks(t *testing.T) {
	for name, site := range streamSites(t) {
		t.Run(name, func(t *testing.T) {
			req := opRequest()
			req.BlockRows = 1 // 3 base groups → 3 blocks
			var blocks []*relation.Relation
			total := 0
			call, err := site.EvalOperatorStream(context.Background(), req, func(b *relation.Relation) error {
				blocks = append(blocks, b)
				total += b.Len()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(blocks) != 3 || total != 3 {
				t.Errorf("blocks = %d (total rows %d), want 3 blocks of 1", len(blocks), total)
			}
			if call.RowsUp != 3 || call.RowsDown != 3 {
				t.Errorf("call rows = %+v", call)
			}
			// Whole-relation equivalence with the non-blocked call.
			whole, _, err := CollectOperator(context.Background(), site, opRequest())
			if err != nil {
				t.Fatal(err)
			}
			merged := blocks[0]
			for _, b := range blocks[1:] {
				if err := merged.Union(b); err != nil {
					t.Fatal(err)
				}
			}
			if !merged.EqualMultiset(whole) {
				t.Error("blocked and whole results differ")
			}
		})
	}
}

func TestEvalOperatorStreamSingleBlockDefault(t *testing.T) {
	for name, site := range streamSites(t) {
		t.Run(name, func(t *testing.T) {
			n := 0
			_, err := site.EvalOperatorStream(context.Background(), opRequest(), func(b *relation.Relation) error {
				n++
				return nil
			})
			if err != nil || n != 1 {
				t.Errorf("blocks = %d, err = %v; want exactly 1 block", n, err)
			}
		})
	}
}

func TestEvalOperatorStreamEmptyBase(t *testing.T) {
	// Even with zero matching rows a single empty block arrives, so the
	// coordinator always learns the H schema.
	for name, site := range streamSites(t) {
		t.Run(name, func(t *testing.T) {
			req := opRequest()
			req.Base = relation.New(req.Base.Schema)
			n, rows := 0, 0
			_, err := site.EvalOperatorStream(context.Background(), req, func(b *relation.Relation) error {
				n++
				rows += b.Len()
				return nil
			})
			if err != nil || n != 1 || rows != 0 {
				t.Errorf("empty base: blocks=%d rows=%d err=%v", n, rows, err)
			}
		})
	}
}

func TestEvalOperatorStreamSinkError(t *testing.T) {
	sinkErr := errors.New("sink rejected block")
	for name, site := range streamSites(t) {
		t.Run(name, func(t *testing.T) {
			req := opRequest()
			req.BlockRows = 1
			_, err := site.EvalOperatorStream(context.Background(), req, func(*relation.Relation) error {
				return sinkErr
			})
			if err == nil {
				t.Fatal("sink error must propagate")
			}
			// The connection (if any) must stay usable afterwards.
			if _, _, err := CollectOperator(context.Background(), site, opRequest()); err != nil {
				t.Errorf("site unusable after sink error: %v", err)
			}
		})
	}
}

func TestEvalOperatorStreamEvalError(t *testing.T) {
	for name, site := range streamSites(t) {
		t.Run(name, func(t *testing.T) {
			req := opRequest()
			req.Op.Detail = "missing"
			_, err := site.EvalOperatorStream(context.Background(), req, func(*relation.Relation) error { return nil })
			if err == nil {
				t.Fatal("evaluation error must propagate")
			}
			if _, _, err := CollectOperator(context.Background(), site, opRequest()); err != nil {
				t.Errorf("site unusable after eval error: %v", err)
			}
		})
	}
}

func TestEngineBlockedEquivalence(t *testing.T) {
	es := testSite(t, 0)
	req := opRequest()
	whole, err := es.EvalOperator(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, blockRows := range []int{1, 2, 100} {
		breq := req
		breq.BlockRows = blockRows
		merged := relation.New(whole.Schema)
		if err := es.EvalOperatorBlocks(context.Background(), breq, func(b *relation.Relation) error {
			return merged.Union(b)
		}); err != nil {
			t.Fatal(err)
		}
		if !merged.EqualMultiset(whole) {
			t.Errorf("blockRows=%d: blocked evaluation differs", blockRows)
		}
	}
	_ = engine.OperatorRequest{} // keep the import for clarity of intent
}
