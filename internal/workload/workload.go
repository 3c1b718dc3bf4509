// Package workload generates the relations the experiments divide: the
// R = Q × S case of the paper's analysis, diluted variants with partial
// quotients and non-matching tuples (the §4.6 speculation that hash-division
// "always outperforms all other algorithms" once R ≠ Q × S), duplicate
// injection, and the university schema of the paper's running examples.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// TranscriptSchema is the dividend layout of the experiments: 16-byte
// records (student-id, course-no), the record size of §5.1.
var TranscriptSchema = tuple.NewSchema(tuple.Int64Field("student_id"), tuple.Int64Field("course_no"))

// CourseSchema is the divisor layout: 8-byte records (course-no).
var CourseSchema = tuple.NewSchema(tuple.Int64Field("course_no"))

// Config parameterizes a generated division instance.
type Config struct {
	// DivisorTuples is |S|, QuotientCandidates the number of distinct
	// quotient values appearing in the dividend.
	DivisorTuples      int
	QuotientCandidates int

	// FullFraction is the fraction of candidates paired with EVERY divisor
	// tuple (and therefore in the quotient). 1.0 gives the analyzed case
	// R = Q × S.
	FullFraction float64
	// MatchFraction is the probability that a non-full candidate is paired
	// with any given divisor tuple.
	MatchFraction float64
	// NoisePerCandidate adds this many dividend tuples per candidate whose
	// course does not appear in the divisor (the physics courses of the
	// second example). Requires division algorithms without the
	// matching-dividend precondition.
	NoisePerCandidate int
	// DuplicateFactor repeats every dividend tuple this many times in
	// total (1 = no duplicates).
	DuplicateFactor int
	// DivisorDuplicateFactor repeats every divisor tuple (1 = none).
	DivisorDuplicateFactor int
	// CourseZipfS, when > 1, skews which courses non-full candidates take:
	// course popularity follows a Zipf(s) distribution instead of uniform
	// MatchFraction sampling. Skewed divisor-attribute values unbalance
	// divisor-partitioned parallel division — the §6 load-balance hazard.
	CourseZipfS float64
	// Shuffle randomizes dividend order (always deterministic by Seed).
	Shuffle bool
	Seed    int64
}

// PaperCase is the §4.6 configuration: R = Q × S exactly.
func PaperCase(s, q int, seed int64) Config {
	return Config{
		DivisorTuples:          s,
		QuotientCandidates:     q,
		FullFraction:           1.0,
		MatchFraction:          0,
		DuplicateFactor:        1,
		DivisorDuplicateFactor: 1,
		Shuffle:                true,
		Seed:                   seed,
	}
}

// Instance is a generated division problem plus its ground truth.
type Instance struct {
	Dividend []tuple.Tuple // TranscriptSchema
	Divisor  []tuple.Tuple // CourseSchema
	// QuotientIDs are the student ids that belong in the quotient, sorted.
	QuotientIDs []int64
}

// Generate builds the instance deterministically from cfg.Seed.
func Generate(cfg Config) (*Instance, error) {
	if cfg.DivisorTuples < 0 || cfg.QuotientCandidates < 0 {
		return nil, fmt.Errorf("workload: negative cardinality")
	}
	if cfg.DuplicateFactor < 1 {
		cfg.DuplicateFactor = 1
	}
	if cfg.DivisorDuplicateFactor < 1 {
		cfg.DivisorDuplicateFactor = 1
	}
	if cfg.FullFraction < 0 || cfg.FullFraction > 1 {
		return nil, fmt.Errorf("workload: FullFraction %g out of [0,1]", cfg.FullFraction)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	courses := make([]int64, cfg.DivisorTuples)
	for i := range courses {
		courses[i] = int64(1000 + i)
	}
	inst := &Instance{}
	for rep := 0; rep < cfg.DivisorDuplicateFactor; rep++ {
		for _, c := range courses {
			inst.Divisor = append(inst.Divisor, CourseSchema.MustMake(c))
		}
	}

	nFull := int(float64(cfg.QuotientCandidates)*cfg.FullFraction + 0.5)
	var zipf *rand.Zipf
	if cfg.CourseZipfS > 1 && cfg.DivisorTuples > 0 {
		zipf = rand.NewZipf(rng, cfg.CourseZipfS, 1, uint64(cfg.DivisorTuples-1))
	}
	var base []tuple.Tuple
	for q := 0; q < cfg.QuotientCandidates; q++ {
		student := int64(q + 1)
		full := q < nFull
		if full && cfg.DivisorTuples > 0 {
			inst.QuotientIDs = append(inst.QuotientIDs, student)
		}
		took := 0
		switch {
		case full:
			for _, c := range courses {
				base = append(base, TranscriptSchema.MustMake(student, c))
				took++
			}
		case zipf != nil:
			// Zipf-popular courses: draw the expected number of enrollments
			// with skewed course choice, de-duplicating per student.
			want := int(float64(cfg.DivisorTuples) * cfg.MatchFraction)
			if want >= cfg.DivisorTuples {
				want = cfg.DivisorTuples - 1
			}
			taken := make(map[int64]bool, want)
			for attempts := 0; len(taken) < want && attempts < 8*want+8; attempts++ {
				c := courses[zipf.Uint64()]
				if !taken[c] {
					taken[c] = true
					base = append(base, TranscriptSchema.MustMake(student, c))
					took++
				}
			}
		default:
			for _, c := range courses {
				if rng.Float64() < cfg.MatchFraction {
					base = append(base, TranscriptSchema.MustMake(student, c))
					took++
				}
			}
		}
		// A non-full candidate that happened to take everything belongs in
		// the quotient after all; guard by dropping one course.
		if !full && took == cfg.DivisorTuples && cfg.DivisorTuples > 0 {
			base = base[:len(base)-1]
		}
		for i := 0; i < cfg.NoisePerCandidate; i++ {
			noise := int64(900000 + rng.Intn(1000))
			base = append(base, TranscriptSchema.MustMake(student, noise))
		}
	}
	for rep := 0; rep < cfg.DuplicateFactor; rep++ {
		inst.Dividend = append(inst.Dividend, base...)
	}
	if cfg.Shuffle {
		rng.Shuffle(len(inst.Dividend), func(i, j int) {
			inst.Dividend[i], inst.Dividend[j] = inst.Dividend[j], inst.Dividend[i]
		})
	}
	return inst, nil
}

// KeyShape selects how Rekey lays out an instance's keys.
type KeyShape int

const (
	// IntKey is the experiments' layout, TranscriptSchema ÷ CourseSchema:
	// single 8-byte keys, which hash-division probes as machine words.
	IntKey KeyShape = iota
	// CompositeKey gives both keys two INT64 columns: the dividend is
	// (student_id, campus, course_no, section) and the divisor
	// (course_no, section).
	CompositeKey
	// CharKey stores the student and the course as CHAR(20) strings.
	CharKey
)

func (k KeyShape) String() string {
	switch k {
	case CompositeKey:
		return "composite-key"
	case CharKey:
		return "char-key"
	default:
		return "int-key"
	}
}

// Rekeyed is an instance laid out under a KeyShape: the dividend divides by
// the divisor on the dividend's DivisorCols.
type Rekeyed struct {
	DividendSchema, DivisorSchema *tuple.Schema
	Dividend, Divisor             []tuple.Tuple
	DivisorCols                   []int
}

// Rekey lays the instance out under shape. Every added column is a function
// of the id it extends, so each shape has the same quotient students.
func (inst *Instance) Rekey(shape KeyShape) Rekeyed {
	var r Rekeyed
	var row func(student, course int64) []any
	var key func(course int64) []any
	switch shape {
	case CompositeKey:
		r = Rekeyed{
			DividendSchema: tuple.NewSchema(tuple.Int64Field("student_id"), tuple.Int64Field("campus"),
				tuple.Int64Field("course_no"), tuple.Int64Field("section")),
			DivisorSchema: tuple.NewSchema(tuple.Int64Field("course_no"), tuple.Int64Field("section")),
			DivisorCols:   []int{2, 3},
		}
		row = func(s, c int64) []any { return []any{s, s % 3, c, c % 5} }
		key = func(c int64) []any { return []any{c, c % 5} }
	case CharKey:
		r = Rekeyed{
			DividendSchema: tuple.NewSchema(tuple.CharField("student", 20), tuple.CharField("course", 20)),
			DivisorSchema:  tuple.NewSchema(tuple.CharField("course", 20)),
			DivisorCols:    []int{1},
		}
		row = func(s, c int64) []any { return []any{fmt.Sprintf("s%d", s), fmt.Sprintf("c%d", c)} }
		key = func(c int64) []any { return []any{fmt.Sprintf("c%d", c)} }
	default:
		return Rekeyed{TranscriptSchema, CourseSchema, inst.Dividend, inst.Divisor, []int{1}}
	}
	for _, t := range inst.Dividend {
		r.Dividend = append(r.Dividend,
			r.DividendSchema.MustMake(row(TranscriptSchema.Int64(t, 0), TranscriptSchema.Int64(t, 1))...))
	}
	for _, t := range inst.Divisor {
		r.Divisor = append(r.Divisor, r.DivisorSchema.MustMake(key(CourseSchema.Int64(t, 0))...))
	}
	return r
}

// Relations is an instance loaded into heap files on its own devices, the
// form the Table 4 experiments consume.
type Relations struct {
	Dividend *storage.File
	Divisor  *storage.File
	// Each relation gets its own device so both scan sequentially.
	DividendDev disk.Dev
	DivisorDev  disk.Dev
}

// Load writes the instance into fresh heap files, one device per relation so
// both scan sequentially (the paper's relations are "physically clustered or
// contiguous files").
func Load(pool *buffer.Pool, inst *Instance, pageSize int) (*Relations, error) {
	if pageSize <= 0 {
		pageSize = disk.PaperPageSize
	}
	return LoadOn(pool, inst,
		disk.NewDevice("dividend", pageSize),
		disk.NewDevice("divisor", pageSize))
}

// LoadOn is Load onto caller-supplied devices — the hook fault-injection
// tests use to wrap the devices with a chaos layer before the data lands.
func LoadOn(pool *buffer.Pool, inst *Instance, dividendDev, divisorDev disk.Dev) (*Relations, error) {
	r := &Relations{
		DividendDev: dividendDev,
		DivisorDev:  divisorDev,
	}
	r.Dividend = storage.NewFile(pool, r.DividendDev, TranscriptSchema, "transcript")
	r.Divisor = storage.NewFile(pool, r.DivisorDev, CourseSchema, "courses")
	if err := r.Dividend.Load(inst.Dividend); err != nil {
		return nil, err
	}
	if err := r.Divisor.Load(inst.Divisor); err != nil {
		return nil, err
	}
	if err := pool.FlushAll(); err != nil {
		return nil, err
	}
	if err := pool.DropClean(); err != nil { // cold cache for the experiment
		return nil, err
	}
	r.DividendDev.ResetStats()
	r.DivisorDev.ResetStats()
	return r, nil
}

// University holds the §2 running-example schema with course titles.
type University struct {
	Courses    []tuple.Tuple // CourseTitleSchema
	Transcript []tuple.Tuple // TranscriptSchema
}

// CourseTitleSchema is Courses(course-no, title).
var CourseTitleSchema = tuple.NewSchema(tuple.Int64Field("course_no"), tuple.CharField("title", 24))

// NewUniversity generates the examples' university: nDatabase courses whose
// title contains "database", nOther others, and students who each take a
// random subset; fullStudents take every database course.
func NewUniversity(nDatabase, nOther, students, fullStudents int, seed int64) *University {
	rng := rand.New(rand.NewSource(seed))
	u := &University{}
	var dbCourses, otherCourses []int64
	for i := 0; i < nDatabase; i++ {
		no := int64(100 + i)
		dbCourses = append(dbCourses, no)
		u.Courses = append(u.Courses, CourseTitleSchema.MustMake(no, fmt.Sprintf("database systems %d", i+1)))
	}
	for i := 0; i < nOther; i++ {
		no := int64(500 + i)
		otherCourses = append(otherCourses, no)
		u.Courses = append(u.Courses, CourseTitleSchema.MustMake(no, fmt.Sprintf("optics %d", i+1)))
	}
	for s := 0; s < students; s++ {
		id := int64(s + 1)
		full := s < fullStudents
		for _, c := range dbCourses {
			if full || rng.Float64() < 0.5 {
				u.Transcript = append(u.Transcript, TranscriptSchema.MustMake(id, c))
			}
		}
		for _, c := range otherCourses {
			if rng.Float64() < 0.3 {
				u.Transcript = append(u.Transcript, TranscriptSchema.MustMake(id, c))
			}
		}
	}
	rng.Shuffle(len(u.Transcript), func(i, j int) {
		u.Transcript[i], u.Transcript[j] = u.Transcript[j], u.Transcript[i]
	})
	return u
}
