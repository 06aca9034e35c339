package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the eclipse-bench blocks of EXPERIMENTS.md")

const experimentsDoc = "../../EXPERIMENTS.md"

// TestExperimentsDoc runs every experiment and requires EXPERIMENTS.md to
// hold exactly what it prints, one block per experiment in table order;
// with -update it rewrites the blocks first. Doctored copies of the file
// must fail the same check, and every experiment must have a row in
// DESIGN.md's experiment index.
func TestExperimentsDoc(t *testing.T) {
	want := make([]string, len(experiments))
	for i, e := range experiments {
		block, err := render(e)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		want[i] = block
	}
	raw, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	if *update {
		if doc, err = rewrite(doc, want); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(experimentsDoc, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkDoc(doc, want); err != nil {
		t.Fatalf("%v\n`make experiments` rewrites the blocks", err)
	}

	for _, c := range []struct{ name, doc string }{
		{"digit changed", flipDigit(doc, want[0])},
		{"block deleted", strings.Replace(doc, want[len(want)-1], "", 1)},
		{"stray block", doc + "<!-- eclipse-bench nosuch -->\n<!-- end eclipse-bench nosuch -->\n"},
	} {
		t.Run("negative control/"+c.name, func(t *testing.T) {
			if checkDoc(c.doc, want) == nil {
				t.Fatal("the check passed")
			}
		})
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	index, _, _ := strings.Cut(string(design), "\n## 5. ")
	_, index, _ = strings.Cut(index, "\n## 4. ")
	for _, e := range experiments {
		if !strings.Contains(index, "`eclipse-bench "+e.name+"`") {
			t.Errorf("DESIGN.md §4 has no row naming `eclipse-bench %s`", e.name)
		}
	}
}

func TestLookup(t *testing.T) {
	for _, c := range []struct {
		arg  string
		want []string
	}{
		{"fig10", []string{"fig10"}},
		{"memorg", []string{"memorg"}},
		{"all", names(experiments)},
		{"fig11", nil},
	} {
		got, err := lookup(c.arg)
		if (err != nil) != (c.want == nil) || strings.Join(names(got), " ") != strings.Join(c.want, " ") {
			t.Errorf("lookup(%q) = %v, %v; want %v", c.arg, names(got), err, c.want)
		}
	}
	for _, e := range experiments {
		if !strings.Contains(usage(), "  "+e.name+" ") {
			t.Errorf("usage does not list %s", e.name)
		}
	}
}

func names(es []experiment) []string {
	var ns []string
	for _, e := range es {
		ns = append(ns, e.name)
	}
	return ns
}

var startMarker = regexp.MustCompile(`<!-- eclipse-bench ([a-z0-9]+) -->`)

// docBlocks returns the names and the text, markers included, of the
// eclipse-bench blocks in doc, in document order.
func docBlocks(doc string) (found, blocks []string, err error) {
	for _, m := range startMarker.FindAllStringSubmatchIndex(doc, -1) {
		name := doc[m[2]:m[3]]
		end := "<!-- end eclipse-bench " + name + " -->\n"
		n := strings.Index(doc[m[0]:], end)
		if n < 0 {
			return nil, nil, fmt.Errorf("EXPERIMENTS.md: block %s has no end marker", name)
		}
		found = append(found, name)
		blocks = append(blocks, doc[m[0]:m[0]+n+len(end)])
	}
	return found, blocks, nil
}

// checkDoc reports how doc's blocks differ from the experiments' output
// want: a missing, stray or reordered block, or a block whose text
// differs.
func checkDoc(doc string, want []string) error {
	got, blocks, err := docBlocks(doc)
	if err != nil {
		return err
	}
	if g, w := strings.Join(got, " "), strings.Join(names(experiments), " "); g != w {
		return fmt.Errorf("EXPERIMENTS.md has the blocks\n\t%s\nbut the experiments table is\n\t%s", g, w)
	}
	var errs []error
	for i, b := range blocks {
		if b != want[i] {
			errs = append(errs, fmt.Errorf("EXPERIMENTS.md block %s differs from eclipse-bench %[1]s:\n%s", got[i], diff(b, want[i])))
		}
	}
	return errors.Join(errs...)
}

// rewrite replaces every block of doc with the experiment's output and
// appends the blocks doc lacks.
func rewrite(doc string, want []string) (string, error) {
	got, blocks, err := docBlocks(doc)
	if err != nil {
		return "", err
	}
	old := map[string]string{}
	for i, name := range got {
		old[name] = blocks[i]
	}
	for i, e := range experiments {
		if b, ok := old[e.name]; ok {
			doc = strings.Replace(doc, b, want[i], 1)
		} else {
			doc += "\n" + want[i]
		}
	}
	return doc, nil
}

// diff shows the lines between the common head and tail of two texts.
func diff(doc, run string) string {
	d, r := strings.Split(doc, "\n"), strings.Split(run, "\n")
	head := 0
	for head < len(d) && head < len(r) && d[head] == r[head] {
		head++
	}
	tail := 0
	for tail < len(d)-head && tail < len(r)-head && d[len(d)-1-tail] == r[len(r)-1-tail] {
		tail++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "@@ block line %d @@\n", head+1)
	for _, l := range d[head : len(d)-tail] {
		b.WriteString("-doc " + l + "\n")
	}
	for _, l := range r[head : len(r)-tail] {
		b.WriteString("+run " + l + "\n")
	}
	return b.String()
}

// flipDigit changes the first digit after the start marker of block in
// doc.
func flipDigit(doc, block string) string {
	at := strings.Index(doc, block) + strings.Index(block, "\n")
	i := at + strings.IndexAny(doc[at:], "0123456789")
	return doc[:i] + string('0'+(doc[i]-'0'+1)%10) + doc[i+1:]
}
