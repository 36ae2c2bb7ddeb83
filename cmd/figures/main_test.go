package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tugal/internal/figures"
)

// TestResultsReproduce: results/fig6.tsv is what the command
// EXPERIMENTS.md gives for results/ writes today —
//
//	go run ./cmd/figures -exp all -scale demo -o results
//
// — byte for byte. A change that moves a simulated number has to
// regenerate results/ (and say so), or this fails.
func TestResultsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("a demo-scale figure")
	}
	res, err := figures.Run("fig6", figures.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := writeTSV(dir, res); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "fig6.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "fig6.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fig6 at demo scale writes\n%s\nresults/fig6.tsv holds\n%s", got, want)
	}
}
