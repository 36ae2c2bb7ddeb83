package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"tugal/internal/paths"
	"tugal/internal/route"
	"tugal/internal/spec"
)

// TestFailSpecIsAtomic drives POST /fail over HTTP: a spec whose second
// item is malformed is refused whole — 400, no swap, and its first
// item's link still alive, so failing that link alone afterwards kills
// two channels and swaps — and /stats reports the patch the swap left.
func TestFailSpecIsAtomic(t *testing.T) {
	tp, err := spec.Topology("dfly(2,4,2,5)")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := route.NewService(paths.Full{T: tp}.Compile(tp), route.ModeUGAL, 0, route.Default())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(tp, svc))
	defer srv.Close()

	post := func(failSpec string, into any) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/fail?spec="+failSpec, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}
	var link string
	for sw := 0; link == ""; sw++ {
		if _, _, ok := tp.GlobalPeerOK(sw, 0); ok {
			link = fmt.Sprintf("global:%d:0", sw)
		}
	}

	if code := post(link+",bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("half-valid spec: status %d, want 400", code)
	}
	if e := svc.Tables().Epoch(); e != 0 {
		t.Fatalf("refused spec swapped to epoch %d", e)
	}
	var swap route.SwapStats
	if code := post(link, &swap); code != http.StatusOK {
		t.Fatalf("valid spec: status %d", code)
	}
	if swap.NewlyDead != 2 || swap.Epoch != 1 || swap.PatchBytes == 0 {
		t.Fatalf("the refused spec's link was already dead, or nothing was patched: %+v", swap)
	}

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Epoch  int         `json:"epoch"`
		Tables route.Stats `json:"tables"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != 1 || stats.Tables.PatchBytes != swap.PatchBytes {
		t.Fatalf("/stats epoch %d patchBytes %d, want 1 and %d", stats.Epoch, stats.Tables.PatchBytes, swap.PatchBytes)
	}
}
