// Package config parses Eclipse setup files: the textual descriptions of
// architectural parameters and applications that the paper's simulator
// consumed ("the simulator parses a setup file that contains these
// architectural parameters", Section 7).
//
// Format: INI-like sections with `key = value` lines and '#' comments.
//
//	[arch]                 # memories and sampling
//	[shell]                # shell template parameters
//	[shell dct]            # per-coprocessor shell override
//	[costs]                # coprocessor cost calibration
//	[app decode NAME]      # a decode application (workload is generated
//	                       # from the width/height/frames/... keys)
//	[app encode NAME]      # an encode application
//
// See Example for a complete file.
package config

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Section is one parsed [header] block.
type Section struct {
	Kind string   // first word of the header, e.g. "arch", "shell", "app"
	Args []string // remaining header words
	Keys map[string]string
	Line int // line number of the header
}

// File is a parsed setup file.
type File struct {
	Sections []Section
}

// Parse reads a setup file.
func Parse(r io.Reader) (*File, error) {
	f := &File{}
	sc := bufio.NewScanner(r)
	line := 0
	var cur *Section
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "[") {
			if !strings.HasSuffix(text, "]") {
				return nil, fmt.Errorf("config: line %d: unterminated section header", line)
			}
			words := strings.Fields(text[1 : len(text)-1])
			if len(words) == 0 {
				return nil, fmt.Errorf("config: line %d: empty section header", line)
			}
			f.Sections = append(f.Sections, Section{
				Kind: words[0], Args: words[1:], Keys: map[string]string{}, Line: line,
			})
			cur = &f.Sections[len(f.Sections)-1]
			continue
		}
		eq := strings.IndexByte(text, '=')
		if eq < 0 {
			return nil, fmt.Errorf("config: line %d: expected key = value", line)
		}
		if cur == nil {
			return nil, fmt.Errorf("config: line %d: key outside any section", line)
		}
		key := strings.TrimSpace(text[:eq])
		val := strings.TrimSpace(text[eq+1:])
		if key == "" {
			return nil, fmt.Errorf("config: line %d: empty key", line)
		}
		if _, dup := cur.Keys[key]; dup {
			return nil, fmt.Errorf("config: line %d: duplicate key %q", line, key)
		}
		cur.Keys[key] = val
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return f, nil
}

// Find returns the sections of a kind.
func (f *File) Find(kind string) []Section {
	var out []Section
	for _, s := range f.Sections {
		if s.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

// Decoder reads typed values from a section, accumulating the first error
// and tracking which keys were consumed so unknown keys can be rejected.
type Decoder struct {
	s    *Section
	used map[string]bool
	err  error
}

// NewDecoder wraps a section.
func NewDecoder(s *Section) *Decoder {
	return &Decoder{s: s, used: map[string]bool{}}
}

func (d *Decoder) raw(key string) (string, bool) {
	v, ok := d.s.Keys[key]
	if ok {
		d.used[key] = true
	}
	return v, ok
}

func (d *Decoder) fail(key, val, want string) {
	if d.err == nil {
		d.err = fmt.Errorf("config: section [%s] line %d: key %q = %q: want %s",
			strings.Join(append([]string{d.s.Kind}, d.s.Args...), " "), d.s.Line, key, val, want)
	}
}

// Int reads an integer key into dst if present.
func (d *Decoder) Int(key string, dst *int) {
	if v, ok := d.raw(key); ok {
		n, err := strconv.Atoi(v)
		if err != nil {
			d.fail(key, v, "integer")
			return
		}
		*dst = n
	}
}

// Uint64 reads an unsigned integer key into dst if present.
func (d *Decoder) Uint64(key string, dst *uint64) {
	if v, ok := d.raw(key); ok {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			d.fail(key, v, "unsigned integer")
			return
		}
		*dst = n
	}
}

// Int64 reads a signed 64-bit integer key into dst if present.
func (d *Decoder) Int64(key string, dst *int64) {
	if v, ok := d.raw(key); ok {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			d.fail(key, v, "integer")
			return
		}
		*dst = n
	}
}

// Bool reads a boolean key ("true"/"false") into dst if present.
func (d *Decoder) Bool(key string, dst *bool) {
	if v, ok := d.raw(key); ok {
		b, err := strconv.ParseBool(v)
		if err != nil {
			d.fail(key, v, "boolean")
			return
		}
		*dst = b
	}
}

// Finish reports unknown keys as an error (typo protection).
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	for k := range d.s.Keys {
		if !d.used[k] {
			return fmt.Errorf("config: section [%s] line %d: unknown key %q",
				strings.Join(append([]string{d.s.Kind}, d.s.Args...), " "), d.s.Line, k)
		}
	}
	return nil
}

// Example is a complete annotated setup file, used by documentation and
// round-trip tests.
const Example = `# Eclipse instance: Figure 8 defaults with a deeper DCT cache.
[arch]
sram_kb            = 32
sram_width         = 16
sram_read_latency  = 2
sram_write_latency = 1
dram_read_latency  = 80
dram_write_latency = 20
sample_interval    = 256

[shell]
read_cache_lines  = 16
write_cache_lines = 16
prefetch_depth    = 2
msg_latency       = 3
gettask_cycles    = 2
getspace_cycles   = 1
putspace_cycles   = 1
switch_cycles     = 8
access_cycles     = 1
naive_scheduler   = false

[shell dct]
read_cache_lines = 32

[costs]
vld_base         = 8
vld_per_bit      = 1
rlsq_base        = 16
rlsq_per_token   = 5
rlsq_per_block   = 8
dct_per_block    = 64
dct_pipelined    = false
mc_recon         = 64
mc_bi_extra      = 64
me_per_candidate = 4
sw_chunk         = 16
sw_per_mb        = 40

[app decode dec0]
width  = 96
height = 80
frames = 8
q      = 6
gop_n  = 12
gop_m  = 3
seed   = 1
probes = true
budget = 2000

[app encode enc0]
width  = 48
height = 32
frames = 5
q      = 6
gop_n  = 12
gop_m  = 3
seed   = 2
budget = 2000
`
