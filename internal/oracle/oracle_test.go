package oracle

import (
	"go/build"
	"slices"
	"strings"
	"testing"

	"fairrank/internal/dataset"
)

func sixObjects(t *testing.T) (*dataset.Dataset, []float64) {
	t.Helper()
	base := []float64{5, 4, 4, 3, 2, 1}
	fair := []float64{0, 1, 0, 1, 1, 0}
	b := dataset.NewBuilder([]string{"s"}, []string{"p"})
	for i := range base {
		b.Add([]float64{base[i]}, []float64{fair[i]})
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d, base
}

// TestExplainByHand checks a report worked out on paper: with 1.5 points
// the protected objects score 5.5, 4.5 and 3.5, so object 3 overtakes
// object 2, which ties object 1 on base score and loses on id.
func TestExplainByHand(t *testing.T) {
	d, base := sixObjects(t)
	r := Explain(d, base, []float64{1.5}, false, 0.5)
	if r.Selected != 3 || r.Cutoff != 4.5 || r.BaseCutoff != 4 {
		t.Errorf("selected/cutoffs = %d %v %v, want 3 4.5 4", r.Selected, r.Cutoff, r.BaseCutoff)
	}
	if want := []int{1, 0, 3, 2, 4, 5}; !slices.Equal(r.Order, want) {
		t.Errorf("order = %v, want %v", r.Order, want)
	}
	if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(r.BaseOrder, want) {
		t.Errorf("base order = %v, want %v", r.BaseOrder, want)
	}
	if r.GroupCounts[0] != 2 || r.BaseGroupCounts[0] != 1 {
		t.Errorf("group counts = %v/%v, want [2]/[1]", r.GroupCounts, r.BaseGroupCounts)
	}
	if !slices.Equal(r.Admitted, []int{3}) || !slices.Equal(r.Displaced, []int{2}) {
		t.Errorf("admitted/displaced = %v/%v, want [3]/[2]", r.Admitted, r.Displaced)
	}

	// Adverse polarity subtracts the points: 2.5, 1.5 and 0.5.
	adv := Explain(d, base, []float64{1.5}, true, 0.5)
	if want := []int{0, 2, 1, 3, 5, 4}; !slices.Equal(adv.Order, want) || adv.Cutoff != 2.5 {
		t.Errorf("adverse order %v cutoff %v, want %v cutoff 2.5", adv.Order, adv.Cutoff, want)
	}

	// A nil bonus reproduces the base ranking and displaces no one.
	zero := Explain(d, base, nil, false, 0.5)
	if !slices.Equal(zero.Order, zero.BaseOrder) || zero.Admitted != nil || zero.Displaced != nil {
		t.Errorf("nil bonus: order %v, admitted %v, displaced %v", zero.Order, zero.Admitted, zero.Displaced)
	}
}

func TestCount(t *testing.T) {
	for _, c := range []struct {
		n    int
		k    float64
		want int
	}{
		{10, 0.25, 3}, {10, 0.24, 2}, {10, 0.01, 1}, {3, 1, 3}, {1, 0.5, 1}, {200, 0.1, 20},
	} {
		if got := count(c.n, c.k); got != c.want {
			t.Errorf("count(%d, %v) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

// TestImportsOnlyDatasetAndStdlib keeps the oracle independent of the
// engine it checks: outside its tests it may import internal/dataset and
// the standard library, nothing else.
func TestImportsOnlyDatasetAndStdlib(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(pkg.Imports, "fairrank/internal/dataset") {
		t.Fatalf("import list %v misses internal/dataset; the check is not reading the package", pkg.Imports)
	}
	for _, path := range pkg.Imports {
		first, _, _ := strings.Cut(path, "/")
		if path == "fairrank/internal/dataset" || (first != "fairrank" && !strings.Contains(first, ".")) {
			continue
		}
		t.Errorf("oracle imports %q; only fairrank/internal/dataset and the standard library are allowed", path)
	}
}
