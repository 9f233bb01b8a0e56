// Fixture for file-scoped suppression: one directive at the top of the
// file waives closeflow for every finding below, with a recorded reason.
//
//soilint:file-ignore closeflow -- fixture: process-lifetime conns, closed at exit
package fileignore

import "net"

// leaks would produce three closeflow findings; the file-ignore turns all
// of them into suppressed findings without per-line pragmas.
func leaks(addr string) {
	a, _ := net.Dial("tcp", addr)
	b, _ := net.Dial("tcp", addr)
	c, _ := net.Dial("tcp", addr)
	a.Write(nil)
	b.Write(nil)
	c.Write(nil)
}

// stillChecked shows other checks stay live: chanlife is NOT named by the
// directive, so a send that may follow a close in this file is still active.
func stillChecked(cond bool) {
	ch := make(chan int)
	if cond {
		close(ch)
	}
	ch <- 1
}
