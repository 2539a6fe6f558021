package experiments

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"cryptodrop"
	"cryptodrop/internal/corpus"
	"cryptodrop/internal/indicator"
	"cryptodrop/internal/ransomware"
)

// AblationRow is one engine variant's detection performance.
type AblationRow struct {
	// Variant names the configuration.
	Variant string
	// DetectionRate is the fraction of samples flagged.
	DetectionRate float64
	// MedianFilesLost is the median loss before detection.
	MedianFilesLost float64
	// MaxFilesLost is the worst case.
	MaxFilesLost int
	// UnionRate is the fraction of samples reaching union indication.
	UnionRate float64
}

// AblationResult compares engine variants over the same roster and corpus.
type AblationResult struct {
	// Rows are per-variant results.
	Rows []AblationRow
	// Samples is the roster size used.
	Samples int
}

// ablationVariants returns the design-choice ablations from DESIGN.md:
// union indication, each primary indicator, and the entropy weighting.
// Every variant is a composition of the pipeline's layers, not an engine
// switch: indicator ablations are registry subtraction (the measurement
// layer stops extracting whatever features the removed units were the only
// consumers of), the weighting ablation swaps in the byte-weighted
// entropy-delta unit, and the union ablation is a policy whose quorum can
// never be reached, so detection stays at the non-union threshold.
func ablationVariants() []struct {
	name string
	opts []cryptodrop.Option
} {
	without := func(inds ...cryptodrop.Indicator) cryptodrop.Option {
		return cryptodrop.WithIndicators(cryptodrop.DefaultIndicators().Without(inds...))
	}
	noUnion := cryptodrop.WithPolicy(&cryptodrop.MajorityPolicy{Quorum: math.MaxInt})
	byteWeighted := cryptodrop.WithIndicators(cryptodrop.DefaultIndicators().With(indicator.ByteWeightedEntropyDelta()))
	return []struct {
		name string
		opts []cryptodrop.Option
	}{
		{"full engine", nil},
		{"no union indication", []cryptodrop.Option{noUnion}},
		{"no type-change indicator", []cryptodrop.Option{without(cryptodrop.IndicatorTypeChange)}},
		{"no similarity indicator", []cryptodrop.Option{without(cryptodrop.IndicatorSimilarity)}},
		{"no entropy-delta indicator", []cryptodrop.Option{without(cryptodrop.IndicatorEntropyDelta)}},
		{"no secondary indicators", []cryptodrop.Option{without(cryptodrop.IndicatorDeletion, cryptodrop.IndicatorFunneling)}},
		{"unweighted entropy mean", []cryptodrop.Option{byteWeighted}},
	}
}

// RunAblations reruns the roster under each engine variant.
func RunAblations(spec corpus.Spec, roster []ransomware.Sample, progress func(variant string)) (AblationResult, error) {
	res := AblationResult{Samples: len(roster)}
	for _, v := range ablationVariants() {
		if progress != nil {
			progress(v.name)
		}
		r, err := NewRunner(spec, v.opts...)
		if err != nil {
			return res, err
		}
		outcomes, err := r.RunRoster(roster, nil)
		if err != nil {
			return res, fmt.Errorf("experiments: ablation %q: %w", v.name, err)
		}
		var lost []int
		row := AblationRow{Variant: v.name}
		for _, o := range outcomes {
			lost = append(lost, o.FilesLost)
			if o.Detected {
				row.DetectionRate++
			}
			if o.Union {
				row.UnionRate++
			}
			if o.FilesLost > row.MaxFilesLost {
				row.MaxFilesLost = o.FilesLost
			}
		}
		if len(outcomes) > 0 {
			row.DetectionRate /= float64(len(outcomes))
			row.UnionRate /= float64(len(outcomes))
		}
		row.MedianFilesLost = median(lost)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render writes the comparison table.
func (r AblationResult) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Variant\tDetected\tMedian FL\tMax FL\tUnion rate\t(%d samples)\n", r.Samples)
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.0f%%\t%.1f\t%d\t%.0f%%\t\n",
			row.Variant, 100*row.DetectionRate, row.MedianFilesLost, row.MaxFilesLost, 100*row.UnionRate)
	}
	return tw.Flush()
}
