// Command divql is a tiny interactive shell around the reldiv library: load
// CSV relations, inspect them, and divide with any of the paper's
// algorithms.
//
//	$ divql
//	> load transcript transcript.csv student:int,course:int
//	> load courses courses.csv course:int
//	> divide transcript by courses using hash-division
//	> show result
//	> explain transcript by courses
//	> quit
//
// With a query server running (divbench serve -addr :7171), divql is also its
// client: "connect" dials the server, "push" uploads a loaded relation, and
// "rdivide" runs the division remotely under the server's admission control
// and plan cache.
//
//	> connect localhost:7171
//	> push transcript
//	> push courses
//	> rdivide transcript by courses
//	> show result
package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	reldiv "repro"
	"repro/server"
)

type shell struct {
	relations map[string]*reldiv.Relation
	out       *bufio.Writer

	// client is the remote query-server connection when "connect" has been
	// issued; push/rdivide/tables operate against it.
	client     *server.Client
	remoteAddr string
}

func main() {
	sh := &shell{
		relations: make(map[string]*reldiv.Relation),
		out:       bufio.NewWriter(os.Stdout),
	}
	in := bufio.NewScanner(os.Stdin)
	interactive := isTerminalHint()
	if interactive {
		fmt.Fprintln(sh.out, "divql — relational division shell (help for commands)")
	}
	for {
		if interactive {
			fmt.Fprint(sh.out, "> ")
		}
		sh.out.Flush()
		if !in.Scan() {
			break
		}
		line := strings.TrimSpace(in.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" || line == "exit" {
			break
		}
		if err := sh.execute(line); err != nil {
			fmt.Fprintf(sh.out, "error: %v\n", err)
		}
	}
	if sh.client != nil {
		sh.client.Close()
	}
	sh.out.Flush()
}

// isTerminalHint avoids prompting when input is piped.
func isTerminalHint() bool {
	fi, err := os.Stdin.Stat()
	if err != nil {
		return true
	}
	return fi.Mode()&os.ModeCharDevice != 0
}

func (sh *shell) execute(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "help":
		fmt.Fprintln(sh.out, `commands:
  load <name> <file.csv> <col:type,...>    types: int, str:<width>
  list                                     list loaded relations
  show <name> [limit]                      print rows
  divide <dividend> by <divisor> [on c1,c2] [using <algorithm>]
         [workers <n>] [budget <kb>] [as <name>]
  explain <dividend> by <divisor>          show the cost-based plan
  explain plan <dividend> by <divisor>     show the logical plan before/after the for-all rewrite
  explain analyze <dividend> by <divisor> [using <algorithm>] [workers <n>] [budget <kb>]
         run the division and print the per-operator profile (rows, time, counters)
  stats <dividend> by <divisor>            run hash-division, show its run statistics
  select <name> where <col>=<val>|<col>~<substr> [as <name>]
  project <name> <col1,col2> [as <name>]
  algorithms                               list algorithm names
  connect <host:port>                      dial a query server (divbench serve -addr)
  disconnect                               drop the server connection
  tables                                   list the server's tables
  push <name> [as <table>]                 upload a loaded int relation to the server
  rdivide <dividend> by <divisor> [on c1,c2] [budget <kb>] [as <name>]
          divide remotely under the server's admission control and plan cache
  quit`)
		return nil
	case "list":
		names := make([]string, 0, len(sh.relations))
		for n := range sh.relations {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			r := sh.relations[n]
			fmt.Fprintf(sh.out, "%-12s %6d rows  columns: %s\n", n, r.NumRows(), strings.Join(r.Columns(), ", "))
		}
		return nil
	case "algorithms":
		fmt.Fprintln(sh.out, "auto naive sort-agg sort-agg+join hash-agg hash-agg+join hash-division")
		return nil
	case "load":
		return sh.load(fields[1:])
	case "show":
		return sh.show(fields[1:])
	case "divide":
		return sh.divide(fields[1:])
	case "explain":
		return sh.explain(fields[1:])
	case "stats":
		return sh.stats(fields[1:])
	case "select":
		return sh.selectRows(fields[1:])
	case "project":
		return sh.project(fields[1:])
	case "connect":
		return sh.connect(fields[1:])
	case "disconnect":
		return sh.disconnect()
	case "tables":
		return sh.remoteTables()
	case "push":
		return sh.push(fields[1:])
	case "rdivide":
		return sh.remoteDivide(fields[1:])
	default:
		return fmt.Errorf("unknown command %q (try help)", fields[0])
	}
}

func parseColumns(spec string) ([]reldiv.Column, error) {
	var cols []reldiv.Column
	for _, part := range strings.Split(spec, ",") {
		nt := strings.SplitN(part, ":", 3)
		if len(nt) < 2 {
			return nil, fmt.Errorf("column %q must be name:type", part)
		}
		switch nt[1] {
		case "int":
			cols = append(cols, reldiv.Int64Col(nt[0]))
		case "str":
			width := 16
			if len(nt) == 3 {
				if _, err := fmt.Sscanf(nt[2], "%d", &width); err != nil {
					return nil, fmt.Errorf("bad width in %q", part)
				}
				if width < 1 {
					return nil, fmt.Errorf("width in %q must be at least 1", part)
				}
			}
			cols = append(cols, reldiv.StringCol(nt[0], width))
		default:
			return nil, fmt.Errorf("unknown type %q (want int or str[:width])", nt[1])
		}
	}
	return cols, nil
}

func (sh *shell) load(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: load <name> <file.csv> <col:type,...>")
	}
	name, path, colSpec := args[0], args[1], args[2]
	cols, err := parseColumns(colSpec)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rel, err := reldiv.FromCSV(f, name, cols...)
	if err != nil {
		return err
	}
	sh.relations[name] = rel
	fmt.Fprintf(sh.out, "loaded %s: %d rows\n", name, rel.NumRows())
	return nil
}

func (sh *shell) rel(name string) (*reldiv.Relation, error) {
	r, ok := sh.relations[name]
	if !ok {
		return nil, fmt.Errorf("no relation %q (try list)", name)
	}
	return r, nil
}

func (sh *shell) show(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: show <name> [limit]")
	}
	r, err := sh.rel(args[0])
	if err != nil {
		return err
	}
	limit := 20
	if len(args) > 1 {
		if _, err := fmt.Sscanf(args[1], "%d", &limit); err != nil {
			return fmt.Errorf("bad limit %q", args[1])
		}
	}
	fmt.Fprintf(sh.out, "%s\n", strings.Join(r.Columns(), "\t"))
	for i, row := range r.Rows() {
		if i >= limit {
			fmt.Fprintf(sh.out, "... (%d more rows)\n", r.NumRows()-limit)
			break
		}
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = fmt.Sprint(v)
		}
		fmt.Fprintln(sh.out, strings.Join(parts, "\t"))
	}
	return nil
}

// divideArgs is the parsed form of a divide command.
type divideArgs struct {
	dividend, divisor string
	on                []string
	alg               string
	as                string
	workers           int
	budgetKB          int
}

// parseDivide handles: <dividend> by <divisor> [on c1,c2] [using alg]
// [workers n] [budget kb] [as name]
func parseDivide(args []string) (divideArgs, error) {
	var d divideArgs
	if len(args) < 3 || args[1] != "by" {
		return d, fmt.Errorf("usage: divide <dividend> by <divisor> [on cols] [using alg] [workers n] [budget kb] [as name]")
	}
	d.dividend, d.divisor = args[0], args[2]
	rest := args[3:]
	takeValue := func(what string) (string, error) {
		if len(rest) < 2 {
			return "", fmt.Errorf("%s needs a value", what)
		}
		v := rest[1]
		rest = rest[2:]
		return v, nil
	}
	for len(rest) > 0 {
		switch rest[0] {
		case "on":
			v, err := takeValue("on")
			if err != nil {
				return d, err
			}
			d.on = strings.Split(v, ",")
		case "using":
			v, err := takeValue("using")
			if err != nil {
				return d, err
			}
			d.alg = v
		case "as":
			v, err := takeValue("as")
			if err != nil {
				return d, err
			}
			d.as = v
		case "workers":
			v, err := takeValue("workers")
			if err != nil {
				return d, err
			}
			if _, err := fmt.Sscanf(v, "%d", &d.workers); err != nil {
				return d, fmt.Errorf("bad workers %q", v)
			}
		case "budget":
			v, err := takeValue("budget")
			if err != nil {
				return d, err
			}
			if _, err := fmt.Sscanf(v, "%d", &d.budgetKB); err != nil {
				return d, fmt.Errorf("bad budget %q", v)
			}
		default:
			return d, fmt.Errorf("unexpected token %q", rest[0])
		}
	}
	return d, nil
}

func (sh *shell) divide(args []string) error {
	d, err := parseDivide(args)
	if err != nil {
		return err
	}
	dividend, err := sh.rel(d.dividend)
	if err != nil {
		return err
	}
	divisor, err := sh.rel(d.divisor)
	if err != nil {
		return err
	}
	opts := &reldiv.Options{
		Workers:      d.workers,
		MemoryBudget: d.budgetKB * 1024,
	}
	if d.alg != "" {
		alg, err := reldiv.ParseAlgorithm(d.alg)
		if err != nil {
			return err
		}
		opts.Algorithm = alg
	}
	q, err := reldiv.Divide(dividend, divisor, d.on, opts)
	if err != nil {
		return err
	}
	as := d.as
	if as == "" {
		as = "result"
	}
	sh.relations[as] = q
	fmt.Fprintf(sh.out, "%s: %d rows (stored as %q)\n", q.Name(), q.NumRows(), as)
	return nil
}

func (sh *shell) stats(args []string) error {
	if len(args) < 3 || args[1] != "by" {
		return fmt.Errorf("usage: stats <dividend> by <divisor>")
	}
	dividend, err := sh.rel(args[0])
	if err != nil {
		return err
	}
	divisor, err := sh.rel(args[2])
	if err != nil {
		return err
	}
	q, st, err := reldiv.DivideWithStats(dividend, divisor, nil, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(sh.out, "hash-division of %s by %s: %d quotient rows\n",
		args[0], args[2], q.NumRows())
	fmt.Fprintf(sh.out, "  divisor rows read       %8d (distinct %d)\n", st.DivisorTuples, st.DivisorDistinct)
	fmt.Fprintf(sh.out, "  dividend rows read      %8d\n", st.DividendTuples)
	fmt.Fprintf(sh.out, "  discarded (no match)    %8d\n", st.DiscardedNoMatch)
	fmt.Fprintf(sh.out, "  quotient candidates     %8d\n", st.Candidates)
	fmt.Fprintf(sh.out, "  peak hash table memory  %8d bytes\n", st.PeakTableBytes)
	return nil
}

func (sh *shell) explain(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "plan":
			return sh.explainPlan(args[1:])
		case "analyze":
			return sh.explainAnalyze(args[1:])
		}
	}
	if len(args) < 3 || args[1] != "by" {
		return fmt.Errorf("usage: explain [plan|analyze] <dividend> by <divisor>")
	}
	dividend, err := sh.rel(args[0])
	if err != nil {
		return err
	}
	divisor, err := sh.rel(args[2])
	if err != nil {
		return err
	}
	plan, err := reldiv.Explain(dividend, divisor, nil)
	if err != nil {
		// Column-name matching may fail; Explain only needs cardinalities.
		plan, err = reldiv.Explain(dividend, divisor, dividend.Columns()[len(dividend.Columns())-divisorCols(divisor):])
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(sh.out, "chosen: %v\n", plan.Chosen)
	type kv struct {
		alg reldiv.Algorithm
		ms  float64
	}
	var kvs []kv
	for a, ms := range plan.EstimatedMS {
		kvs = append(kvs, kv{a, ms})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].ms < kvs[j].ms })
	for _, e := range kvs {
		fmt.Fprintf(sh.out, "  %-16s %12.0f ms (analytical)\n", e.alg, e.ms)
	}
	return nil
}

func divisorCols(divisor *reldiv.Relation) int { return len(divisor.Columns()) }

// explainPlan handles: explain plan <dividend> by <divisor> [on c1,c2]
func (sh *shell) explainPlan(args []string) error {
	if len(args) < 3 || args[1] != "by" {
		return fmt.Errorf("usage: explain plan <dividend> by <divisor> [on cols]")
	}
	dividend, err := sh.rel(args[0])
	if err != nil {
		return err
	}
	divisor, err := sh.rel(args[2])
	if err != nil {
		return err
	}
	var on []string
	if len(args) >= 5 && args[3] == "on" {
		on = strings.Split(args[4], ",")
	}
	original, rewritten, err := reldiv.ExplainPlan(dividend, divisor, on)
	if err != nil {
		return err
	}
	fmt.Fprintln(sh.out, "aggregation encoding (without a division operator):")
	fmt.Fprint(sh.out, indent(original, "  "))
	fmt.Fprintln(sh.out, "after the for-all rewrite:")
	fmt.Fprint(sh.out, indent(rewritten, "  "))
	return nil
}

// explainAnalyze handles: explain analyze <dividend> by <divisor>
// [on c1,c2] [using alg] [workers n] [budget kb] [as name]
func (sh *shell) explainAnalyze(args []string) error {
	d, err := parseDivide(args)
	if err != nil {
		return fmt.Errorf("usage: explain analyze <dividend> by <divisor> [on cols] [using alg] [workers n] [budget kb] [as name]")
	}
	dividend, err := sh.rel(d.dividend)
	if err != nil {
		return err
	}
	divisor, err := sh.rel(d.divisor)
	if err != nil {
		return err
	}
	opts := &reldiv.Options{
		Workers:      d.workers,
		MemoryBudget: d.budgetKB * 1024,
	}
	if d.alg != "" {
		alg, err := reldiv.ParseAlgorithm(d.alg)
		if err != nil {
			return err
		}
		opts.Algorithm = alg
	}
	q, prof, err := reldiv.ExplainAnalyze(dividend, divisor, d.on, opts)
	if err != nil {
		return err
	}
	as := d.as
	if as == "" {
		as = "result"
	}
	sh.relations[as] = q
	fmt.Fprintf(sh.out, "%s: %d rows (stored as %q)\n", q.Name(), q.NumRows(), as)
	fmt.Fprint(sh.out, prof.Format())
	return nil
}

// connect dials a query server; later push/rdivide/tables run against it.
func (sh *shell) connect(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: connect <host:port>")
	}
	if sh.client != nil {
		return fmt.Errorf("already connected to %s (disconnect first)", sh.remoteAddr)
	}
	c, err := server.Dial(args[0])
	if err != nil {
		return err
	}
	tables, err := c.Tables()
	if err != nil {
		c.Close()
		return err
	}
	sh.client = c
	sh.remoteAddr = args[0]
	fmt.Fprintf(sh.out, "connected to %s (%d tables)\n", args[0], len(tables))
	return nil
}

func (sh *shell) disconnect() error {
	if sh.client == nil {
		return fmt.Errorf("not connected")
	}
	sh.client.Close()
	sh.client = nil
	fmt.Fprintf(sh.out, "disconnected from %s\n", sh.remoteAddr)
	sh.remoteAddr = ""
	return nil
}

func (sh *shell) remote() (*server.Client, error) {
	if sh.client == nil {
		return nil, fmt.Errorf("not connected (connect <host:port> first)")
	}
	return sh.client, nil
}

func (sh *shell) remoteTables() error {
	c, err := sh.remote()
	if err != nil {
		return err
	}
	tables, err := c.Tables()
	if err != nil {
		return err
	}
	for _, t := range tables {
		fmt.Fprintln(sh.out, t)
	}
	return nil
}

// push uploads a loaded relation to the server. The wire protocol carries
// int64 columns only; string relations stay local.
func (sh *shell) push(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: push <name> [as <table>]")
	}
	c, err := sh.remote()
	if err != nil {
		return err
	}
	rel, err := sh.rel(args[0])
	if err != nil {
		return err
	}
	table := args[0]
	if len(args) >= 3 && args[1] == "as" {
		table = args[2]
	}
	rows := make([][]int64, rel.NumRows())
	for i, row := range rel.Rows() {
		out := make([]int64, len(row))
		for j, v := range row {
			n, ok := v.(int64)
			if !ok {
				return fmt.Errorf("%s.%s is not an int column; the server stores int tables only",
					args[0], rel.Columns()[j])
			}
			out[j] = n
		}
		rows[i] = out
	}
	if err := c.CreateTable(table, rel.Columns()...); err != nil {
		return err
	}
	if err := c.Insert(table, rows); err != nil {
		return err
	}
	fmt.Fprintf(sh.out, "pushed %s: %d rows as %q\n", args[0], len(rows), table)
	return nil
}

// remoteDivide handles: rdivide <dividend> by <divisor> [on c1,c2]
// [budget kb] [as name] — the tables are server-side names, the quotient
// comes back as a local relation.
func (sh *shell) remoteDivide(args []string) error {
	d, err := parseDivide(args)
	if err != nil {
		return fmt.Errorf("usage: rdivide <dividend> by <divisor> [on cols] [budget kb] [as name]")
	}
	if d.alg != "" || d.workers != 0 {
		return fmt.Errorf("rdivide: the server picks the algorithm; using/workers are local-only")
	}
	c, err := sh.remote()
	if err != nil {
		return err
	}
	resp, err := c.Do(server.Request{Op: "divide", Dividend: d.dividend, Divisor: d.divisor,
		On: d.on, MemoryBudget: d.budgetKB * 1024})
	if err != nil {
		return err
	}
	if err := resp.Err(); err != nil {
		return err
	}
	cols := make([]reldiv.Column, len(resp.Columns))
	for i, name := range resp.Columns {
		cols[i] = reldiv.Int64Col(name)
	}
	q := reldiv.NewRelation("quotient", cols...)
	for _, row := range resp.Rows {
		vals := make([]any, len(row))
		for j, v := range row {
			vals[j] = v
		}
		q.MustInsert(vals...)
	}
	as := d.as
	if as == "" {
		as = "result"
	}
	sh.relations[as] = q
	cache := "miss"
	if resp.CacheHit {
		cache = "hit"
	}
	fmt.Fprintf(sh.out, "quotient: %d rows (stored as %q; plan cache %s, queued %dµs)\n",
		q.NumRows(), as, cache, resp.QueuedMicros)
	return nil
}

// indent prefixes every non-empty line.
func indent(s, prefix string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if l != "" {
			lines[i] = prefix + l
		}
	}
	return strings.Join(lines, "\n")
}

// selectRows handles: select <name> where col=val | col~substr [as name]
func (sh *shell) selectRows(args []string) error {
	if len(args) < 3 || args[1] != "where" {
		return fmt.Errorf("usage: select <name> where <col>=<val>|<col>~<substr> [as <name>]")
	}
	rel, err := sh.rel(args[0])
	if err != nil {
		return err
	}
	cond := args[2]
	as := "result"
	if len(args) >= 5 && args[3] == "as" {
		as = args[4]
	}

	var colName, value string
	var substring bool
	if i := strings.IndexByte(cond, '='); i > 0 {
		colName, value = cond[:i], cond[i+1:]
	} else if i := strings.IndexByte(cond, '~'); i > 0 {
		colName, value, substring = cond[:i], cond[i+1:], true
	} else {
		return fmt.Errorf("condition %q must be col=val or col~substr", cond)
	}
	colIdx := -1
	for i, c := range rel.Columns() {
		if c == colName {
			colIdx = i
		}
	}
	if colIdx < 0 {
		return fmt.Errorf("no column %q in %s", colName, args[0])
	}

	out := rel.Filter(func(row []any) bool {
		switch v := row[colIdx].(type) {
		case int64:
			want, err := strconv.ParseInt(value, 10, 64)
			return err == nil && !substring && v == want
		case string:
			if substring {
				return strings.Contains(v, value)
			}
			return v == value
		default:
			return false
		}
	})
	sh.relations[as] = out
	fmt.Fprintf(sh.out, "%s: %d rows (stored as %q)\n", args[0], out.NumRows(), as)
	return nil
}

// project handles: project <name> <col1,col2> [as name]
func (sh *shell) project(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: project <name> <col1,col2> [as <name>]")
	}
	rel, err := sh.rel(args[0])
	if err != nil {
		return err
	}
	out, err := rel.Project(strings.Split(args[1], ",")...)
	if err != nil {
		return err
	}
	as := "result"
	if len(args) >= 4 && args[2] == "as" {
		as = args[3]
	}
	sh.relations[as] = out
	fmt.Fprintf(sh.out, "%s: %d rows, columns %v (stored as %q)\n",
		args[0], out.NumRows(), out.Columns(), as)
	return nil
}
