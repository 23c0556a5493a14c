package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"

	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
)

// viewql_refine is post-mortem refinement of a core dump (the paper's
// Table 3 ViewQL objectives): one client on one core-dump session with
// all stdlib figures. A unit is
//
//	vctrl "viewql <pane> <program>" → GET pane JSON → vctrl "expand <pane>" → GET pane text
//
// where the seeded program selects boxes of one type by address and
// collapses them. Display-state writes load ViewQL, rendering and server
// serialization while target reads and extraction rounds sit idle — the
// contrast to step_look.

const refineSession = "pm"

type refinePane struct {
	id       int
	baseline []byte   // text after a full expand, before any refinement
	boxes    []refBox // boxes a program can select by type and address
}

type refBox struct{ id, typ, addr string }

type viewqlRefine struct {
	st     *stack
	c      *client
	rng    *rand.Rand
	path   string
	core   string // the dump the session is admitted from
	panes  []refinePane
	order  []int // panes left in the current visiting round
	visits int   // visiting rounds started
	bytes  int64
}

// prepareViewQLRefine dumps the kernel the session is admitted from.
func prepareViewQLRefine(e *env) error {
	return writeCore(corePath(e, refineSession), kernelsim.Options{Processes: 5, Churn: 4})
}

func setupViewQLRefine(e *env) (instance, error) {
	st, err := startStack(e.tc, 8)
	if err != nil {
		return nil, err
	}
	w := &viewqlRefine{st: st, c: newClient(st.base, e.tc), rng: newRand(e.seed, "viewql_refine"),
		path: "/sessions/" + refineSession, core: corePath(e, refineSession)}
	if err := w.start(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// start admits the core-dump session, expands every pane and records, per
// pane, its text and the boxes a program can select.
func (w *viewqlRefine) start() error {
	if _, err := w.c.postJSON(nil, http.StatusCreated, "/sessions", map[string]any{"id": refineSession, "core": w.core}); err != nil {
		return err
	}
	listing, err := w.c.panes(nil, refineSession)
	if err != nil {
		return err
	}
	w.panes, w.order = nil, nil
	for _, p := range listing {
		if p.Boxes == 0 {
			continue
		}
		rp := refinePane{id: p.ID}
		if err := w.vctrl(nil, fmt.Sprintf("expand %d", p.ID)); err != nil {
			return err
		}
		if rp.baseline, err = w.get(nil, p.ID, "text"); err != nil {
			return err
		}
		body, err := w.get(nil, p.ID, "json")
		if err != nil {
			return err
		}
		var pj paneJSON
		if err := json.Unmarshal(body, &pj); err != nil {
			return mismatch("pane %d JSON: %v", p.ID, err)
		}
		for _, b := range pj.Boxes {
			if b.Type != "" && b.Addr != "" {
				rp.boxes = append(rp.boxes, refBox{b.ID, b.Type, b.Addr})
			}
		}
		if len(rp.boxes) > 0 {
			w.panes = append(w.panes, rp)
		}
	}
	if len(w.panes) == 0 {
		return fmt.Errorf("core session has no refinable panes")
	}
	return nil
}

// settle replaces the session with a fresh one from the same dump: the
// session keeps every v-command in its history, so its heap grows with
// the number of units run.
func (w *viewqlRefine) settle() error {
	if _, err := w.c.expect(nil, http.StatusOK, http.MethodDelete, w.path, nil); err != nil {
		return err
	}
	return w.start()
}

func (w *viewqlRefine) drive(deadline time.Time, rec *recorder) {
	closedLoop(deadline, rec, w.unit)
}

// next picks the pane, box and comparison of the next unit. Panes differ
// a lot in size, so they are visited in rounds — every pane once per
// round, in seeded order — and the comparison rotates per visit: the seed
// changes the order and the boxes, not how much work a run does.
func (w *viewqlRefine) next() (*refinePane, refBox, string) {
	if len(w.order) == 0 {
		w.order = w.rng.Perm(len(w.panes))
		w.visits++
	}
	i := w.order[0]
	w.order = w.order[1:]
	p := &w.panes[i]
	op := [...]string{">=", "<=", "=="}[(w.visits+i)%3]
	return p, p.boxes[w.rng.IntN(len(p.boxes))], op
}

func (w *viewqlRefine) unit(sp *obs.Span) error {
	p, b, op := w.next()
	prog := fmt.Sprintf("s = SELECT %s FROM * WHERE addr %s %s\nUPDATE s WITH collapsed: true", b.typ, op, b.addr)
	if err := w.vctrl(sp, fmt.Sprintf("viewql %d %s", p.id, prog)); err != nil {
		return err
	}
	body, err := w.get(sp, p.id, "json")
	if err != nil {
		return err
	}
	var pj paneJSON
	if err := json.Unmarshal(body, &pj); err != nil {
		return mismatch("pane %d JSON: %v", p.id, err)
	}
	collapsed := false
	for _, jb := range pj.Boxes {
		if jb.ID == b.id {
			collapsed = jb.Attrs["collapsed"] == "true"
		}
	}
	if !collapsed {
		return mismatch("pane %d: %q not collapsed by %q", p.id, b.id, prog)
	}
	if err := w.vctrl(sp, fmt.Sprintf("expand %d", p.id)); err != nil {
		return err
	}
	text, err := w.get(sp, p.id, "text")
	if err != nil {
		return err
	}
	if !bytes.Equal(text, p.baseline) {
		return mismatch("pane %d text after expand differs from before the refinement", p.id)
	}
	return nil
}

func (w *viewqlRefine) vctrl(sp *obs.Span, cmd string) error {
	_, err := w.c.postJSON(sp, http.StatusOK, w.path+"/api/vctrl", map[string]string{"command": cmd})
	return err
}

func (w *viewqlRefine) get(sp *obs.Span, pane int, format string) ([]byte, error) {
	rep, err := w.c.expect(sp, http.StatusOK, http.MethodGet, fmt.Sprintf("%s/api/pane?id=%d&format=%s", w.path, pane, format), nil)
	w.bytes += int64(len(rep.body))
	return rep.body, err
}

func (w *viewqlRefine) counters(c counters) {
	w.st.sessionCounters(c, []string{refineSession})
	w.st.roundCounters(c)
	c["resp_bytes"] = float64(w.bytes)
}

func (w *viewqlRefine) close() {
	w.c.close()
	w.st.close()
}
