// Package closeflow is the fixture for the io.Closer lifecycle analyzer:
// leaks on used paths, the read-witness rule that keeps the standard
// error-check idiom clean, ownership transfers (return, composite, keeper
// helpers), and interprocedural acquire/close wrappers.
package closeflow

import (
	"net"
	"os"
)

// leakConn writes to the connection and returns without closing it.
func leakConn(addr string) error {
	c, err := net.Dial("tcp", addr) // finding: used but never closed
	if err != nil {
		return err
	}
	_, err = c.Write([]byte("ping"))
	return err
}

// cleanFile is the canonical shape: error check, defer Close.
func cleanFile(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// saveAtomic is the atomic-replace idiom: temp file, explicit Close on every
// used path, then rename. Pinned clean.
func saveAtomic(dir, path string, data []byte) error {
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	return os.Rename(f.Name(), path)
}

// dialWrapper returns the fresh connection to its caller: clean here, and
// its summary makes callers the owners.
func dialWrapper(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr)
}

// leakViaWrapper acquires through the wrapper and leaks on the happy path.
func leakViaWrapper(addr string) error {
	c, err := dialWrapper(addr) // finding: used but never closed
	if err != nil {
		return err
	}
	_, err = c.Write([]byte("ping"))
	return err
}

// shutdown closes its parameter; callers of shutdown are releasers.
func shutdown(c net.Conn) {
	c.Close()
}

// cleanViaHelper releases through the interprocedural closesParam summary.
func cleanViaHelper(addr string) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	_, err = c.Write([]byte("ping"))
	shutdown(c)
	return err
}

// holder owns a connection; whoever stores one transfers ownership to it.
type holder struct{ c net.Conn }

var registry []*holder

// keep stores its parameter beyond the call: callers transfer ownership.
func keep(c net.Conn) {
	registry = append(registry, &holder{c: c})
}

// cleanViaKeeper hands the connection to keep: the registry owns it now.
func cleanViaKeeper(addr string) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	keep(c)
	return nil
}

// serveOne accepts and closes on every used path: clean.
func serveOne(l net.Listener) error {
	c, err := l.Accept()
	if err != nil {
		return err
	}
	defer c.Close()
	_, err = c.Write([]byte("ok"))
	return err
}

// discardedDial drops the connection on the floor.
func discardedDial(addr string) {
	net.Dial("tcp", addr) // finding: result discarded
}

// suppressedLeak is the leakConn shape with an inline waiver.
func suppressedLeak(addr string) error {
	c, err := net.Dial("tcp", addr) //soilint:ignore closeflow fixture: demonstrates suppression
	if err != nil {
		return err
	}
	_, err = c.Write([]byte("ping"))
	return err
}
