package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	reldiv "repro"
)

func TestParseColumns(t *testing.T) {
	cols, err := parseColumns("student:int,course:int,name:str:12")
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 3 {
		t.Fatalf("got %d columns", len(cols))
	}
	if _, err := parseColumns("x"); err == nil {
		t.Error("missing type accepted")
	}
	if _, err := parseColumns("x:float"); err == nil {
		t.Error("unknown type accepted")
	}
	for _, spec := range []string{"x:str:abc", "x:str:0", "x:str:-3"} {
		if _, err := parseColumns(spec); err == nil {
			t.Errorf("bad width accepted: %s", spec)
		}
	}
}

func TestParseDivide(t *testing.T) {
	d, err := parseDivide(
		strings.Fields("transcript by courses on course using hash-division workers 4 budget 64 as q"))
	if err != nil {
		t.Fatal(err)
	}
	if d.dividend != "transcript" || d.divisor != "courses" {
		t.Errorf("operands = %s, %s", d.dividend, d.divisor)
	}
	if len(d.on) != 1 || d.on[0] != "course" {
		t.Errorf("on = %v", d.on)
	}
	if d.alg != "hash-division" || d.as != "q" {
		t.Errorf("alg=%q as=%q", d.alg, d.as)
	}
	if d.workers != 4 || d.budgetKB != 64 {
		t.Errorf("workers=%d budget=%d", d.workers, d.budgetKB)
	}

	for _, bad := range []string{"a b c", "a by b using", "a by b junk", "a by b workers x"} {
		if _, err := parseDivide(strings.Fields(bad)); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestShellEndToEnd(t *testing.T) {
	dir := t.TempDir()
	transcript := filepath.Join(dir, "transcript.csv")
	courses := filepath.Join(dir, "courses.csv")
	if err := os.WriteFile(transcript, []byte("1,101\n1,102\n2,101\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(courses, []byte("101\n102\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	sh := &shell{relations: make(map[string]*reldiv.Relation), out: bufio.NewWriter(&buf)}
	script := []string{
		"load transcript " + transcript + " student:int,course:int",
		"load courses " + courses + " course:int",
		"list",
		"divide transcript by courses using hash-division as q",
		"divide transcript by courses workers 3 as qp",
		"show q",
		"explain transcript by courses",
		"stats transcript by courses",
		"select transcript where student=1 as s1",
		"project transcript course as pc",
		"explain plan transcript by courses",
		"explain analyze transcript by courses using hash-division as qa",
		"explain analyze transcript by courses using sort-agg+join as qs",
		"explain analyze transcript by courses workers 2 as qw",
		"algorithms",
		"help",
	}
	for _, line := range script {
		if err := sh.execute(line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	sh.out.Flush()
	out := buf.String()
	for _, want := range []string{
		"loaded transcript: 3 rows",
		"loaded courses: 2 rows",
		"transcript÷courses: 1 rows",
		// At this tiny size the cost model may pick any algorithm; just
		// assert the explain output appeared with estimates.
		"chosen: ",
		"(analytical)",
		"discarded (no match)",
		"quotient candidates",
		"transcript: 2 rows (stored as \"s1\")",
		"columns [course]",
		// explain plan shows both trees around the rewrite.
		"aggregation encoding",
		"SemiJoin",
		"after the for-all rewrite:",
		"Division(on [1])",
		// explain analyze prints the profile tree with counters.
		"transcript÷courses: 1 rows (stored as \"qa\")",
		"total: comp=",
		"hash-division [division]",
		"build-divisor-table [phase]",
		"sort-agg+join [division]",
		"merge-semi-join [MergeSemiJoin]",
		"parallel quotient-partitioning [parallel]",
		"worker 0 [worker]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The quotient holds only student 1.
	if !strings.Contains(out, "\n1\n") {
		t.Errorf("quotient row missing:\n%s", out)
	}
}

func TestShellErrors(t *testing.T) {
	var buf bytes.Buffer
	sh := &shell{relations: make(map[string]*reldiv.Relation), out: bufio.NewWriter(&buf)}
	for _, line := range []string{
		"bogus",
		"show nothing",
		"divide a by b",
		"load x /nonexistent.csv a:int",
	} {
		if err := sh.execute(line); err == nil {
			t.Errorf("%q should error", line)
		}
	}
}
