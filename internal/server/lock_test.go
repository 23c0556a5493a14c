package server

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestConcurrentReadersNotSerialized regression-tests the read-path lock
// narrowing: the server used to hold one exclusive mutex across full
// request handling including serialization, so a single slow render
// stalled every other reader. Read handlers now share an RWMutex and the
// serialization cache has its own lock that is not held across rendering —
// a reader parked mid-render must not block an unrelated reader.
func TestConcurrentReadersNotSerialized(t *testing.T) {
	srv := serveDefault(t, []string{"3-4", "7-1"})

	release := make(chan struct{})
	stalled := make(chan struct{})
	var once sync.Once
	defaultTenant(srv).RenderStall = func(paneID int, format string) {
		if paneID == 1 {
			once.Do(func() { close(stalled) })
			<-release
		}
	}

	done1 := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/pane?id=1&format=text", nil))
		done1 <- rec.Code
	}()
	select {
	case <-stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("first reader never reached the render stage")
	}

	// While reader 1 is parked mid-render (holding the read lock), an
	// unrelated reader must complete.
	done2 := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/pane?id=2&format=text", nil))
		done2 <- rec.Code
	}()
	select {
	case code := <-done2:
		if code != 200 {
			t.Fatalf("concurrent reader status = %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a second reader blocked behind a stalled serialization — the read path is serialized")
	}

	// The pane listing (pure read, no serialization) must also pass.
	done3 := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/panes", nil))
		done3 <- rec.Code
	}()
	select {
	case code := <-done3:
		if code != 200 {
			t.Fatalf("pane listing status = %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pane listing blocked behind a stalled serialization")
	}

	close(release)
	if code := <-done1; code != 200 {
		t.Fatalf("stalled reader status = %d", code)
	}
}

// TestWriterExcludesReaders sanity-checks the other direction: a mutation
// takes the write lock, so a reader issued after the writer acquired it
// observes the mutation's result (no torn reads of the pane tree).
func TestWriterExcludesReaders(t *testing.T) {
	srv := serveDefault(t, []string{"3-4"})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/panes", nil))
				if rec.Code != 200 {
					t.Errorf("reader status = %d", rec.Code)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 5; j++ {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/vctrl",
				jsonBody(`{"command":"viewql 1 kt = SELECT task_struct FROM *"}`)))
			if rec.Code != 200 {
				t.Errorf("writer status = %d", rec.Code)
				return
			}
		}
	}()
	wg.Wait()
}
