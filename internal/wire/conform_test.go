package wire_test

import (
	"context"
	_ "embed"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"strconv"
	"strings"
	"testing"

	"soifft/client"
	"soifft/internal/serve"
	"soifft/internal/wire"
)

// The protocol's source is the oracle of these tests: a frame type, a code
// or a sentinel added to wire.go is checked against String, ErrFor/CodeFor,
// the server's dispatch and the client's demultiplexer with no table here
// to extend. Embedding (not reading) the file lets a build overlay reach it.
//
//go:embed wire.go
var wireSrc string

// parseWire returns wire.go's frame types (→ "request" or "response", from
// each constant's comment), codes and sentinels (both keyed by the name
// after the Code / Err prefix; a sentinel maps to its message).
func parseWire(t *testing.T) (types map[wire.Type]string, codes map[string]uint32, sentinels map[string]string) {
	f, err := parser.ParseFile(token.NewFileSet(), "wire.go", wireSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	types, codes, sentinels = map[wire.Type]string{}, map[string]uint32{}, map[string]string{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || (gd.Tok != token.CONST && gd.Tok != token.VAR) {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names[:min(len(vs.Names), len(vs.Values))] {
				val := vs.Values[i]
				if call, ok := val.(*ast.CallExpr); ok && len(call.Args) == 1 {
					val = call.Args[0] // errors.New("...")
				}
				lit, _ := val.(*ast.BasicLit)
				if lit == nil {
					continue
				}
				v, _ := strconv.Atoi(lit.Value)
				switch n := name.Name; {
				case fmt.Sprint(vs.Type) == "Type":
					types[wire.Type(v)], _, _ = strings.Cut(strings.TrimSpace(vs.Comment.Text()), ":")
				case gd.Tok == token.CONST && strings.HasPrefix(n, "Code"):
					codes[n[len("Code"):]] = uint32(v)
				case gd.Tok == token.VAR && strings.HasPrefix(n, "Err"):
					sentinels[n[len("Err"):]], _ = strconv.Unquote(lit.Value)
				}
			}
		}
	}
	if len(types) == 0 || len(codes) == 0 || len(sentinels) == 0 {
		t.Fatal("found no enums in wire.go")
	}
	return types, codes, sentinels
}

// TestCodeErrRoundTrip: every declared code has a sentinel of its name,
// ErrFor rebuilds that sentinel, CodeFor maps it back through a detail
// message, and every sentinel has a code.
func TestCodeErrRoundTrip(t *testing.T) {
	_, codes, sentinels := parseWire(t)
	for name, code := range codes {
		if got := wire.ErrFor(code, "").Error(); got != sentinels[name] {
			t.Errorf("ErrFor(Code%s) = %q, want Err%s = %q", name, got, name, sentinels[name])
		}
		if got := wire.CodeFor(wire.ErrFor(code, "detail text")); got != code {
			t.Errorf("CodeFor(ErrFor(Code%s, detail)) = %d, want %d", name, got, code)
		}
	}
	for name := range sentinels {
		if _, ok := codes[name]; !ok {
			t.Errorf("Err%s has no code Code%s", name, name)
		}
	}
}

// TestFrameTypesConform: every declared frame type has a name, every
// request type reaches the server's dispatch (its answer is not an
// unknown-type rejection), and every response type passes the client's
// demultiplexer (a later response on the same connection still arrives).
func TestFrameTypesConform(t *testing.T) {
	types, _, _ := parseWire(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{})
	go srv.Serve(ln)
	defer srv.Close()
	for typ, kind := range types {
		if typ.String() == fmt.Sprintf("Type(%d)", byte(typ)) {
			t.Errorf("type %d has no String case", byte(typ))
		}
		var err error
		switch kind {
		case "request":
			err = dispatched(ln.Addr().String(), typ)
		case "response":
			err = demultiplexed(typ)
		default:
			err = fmt.Errorf("its comment must start \"request:\" or \"response:\"")
		}
		if err != nil {
			t.Errorf("%s type %v: %v", kind, typ, err)
		}
	}
}

// dispatched sends the server one frame of type typ and reads the answer.
func dispatched(addr string, typ wire.Type) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	h := wire.Header{Type: typ, Alg: wire.AlgExact, Count: 1, N: 8, PayloadLen: 8 * wire.BytesPerElem}
	if err := wire.WriteHeader(conn, &h); err != nil {
		return err
	}
	if _, err := conn.Write(make([]byte, h.PayloadLen)); err != nil {
		return err
	}
	resp, err := wire.ReadHeader(conn)
	if err != nil {
		return fmt.Errorf("server hung up: %w", err)
	}
	if msg, _ := wire.ReadText(conn, resp.PayloadLen); resp.Type == wire.TError && strings.Contains(msg, "frame type") {
		return fmt.Errorf("server rejected it: %s", msg)
	}
	return nil
}

// demultiplexed answers a client call with a frame of type typ for another
// request ID, then with an error frame for the call itself.
func demultiplexed(typ wire.Type) error {
	cs, ss := net.Pipe()
	defer ss.Close()
	cl := client.New(cs)
	defer cl.Close()
	go func() {
		req, err := wire.ReadHeader(ss)
		if err != nil || wire.DiscardPayload(ss, req.PayloadLen) != nil {
			return
		}
		other := wire.Header{Type: typ, ReqID: req.ReqID + 1, Count: 1, N: 1, PayloadLen: wire.BytesPerElem}
		_ = wire.WriteHeader(ss, &other)
		_, _ = ss.Write(make([]byte, other.PayloadLen))
		_ = wire.WriteError(ss, req.ReqID, fmt.Errorf("%w: sentinel", wire.ErrBadRequest))
	}()
	err := cl.Forward(context.Background(), make([]complex128, 4), make([]complex128, 4))
	if err == nil || !strings.Contains(err.Error(), "sentinel") {
		return fmt.Errorf("the call after it failed with %v", err)
	}
	return nil
}
