package experiments

import (
	"sort"
	"strings"

	"cryptodrop/internal/telemetry"
)

// TelemetrySummary condenses one run's telemetry registry into the numbers
// the evaluation cares about: how often each indicator fired, how the
// measurement pipeline behaved, and the detection's flight-recorder trace.
type TelemetrySummary struct {
	// IndicatorFires counts firings per indicator name (union bonus under
	// "union-bonus").
	IndicatorFires map[string]int64 `json:"indicatorFires,omitempty"`
	// Detections counts engine detections in the run.
	Detections int64 `json:"detections,omitempty"`
	// MeasureCount is the number of file measurements performed.
	MeasureCount uint64 `json:"measureCount,omitempty"`
	// MeasureP50/MeasureP99 are measurement-latency quantiles in seconds.
	MeasureP50 float64 `json:"measureP50,omitempty"`
	MeasureP99 float64 `json:"measureP99,omitempty"`
	// Trace is the flight-recorder explanation of the run's detection, when
	// a recorder was attached.
	Trace *telemetry.Trace `json:"trace,omitempty"`
}

// indicator fire metrics carry the indicator as an inline label.
const fireMetricPrefix = `engine_indicator_fires_total{indicator="`

// summarizeTelemetry folds a registry snapshot (and optional flight
// recorder) into a TelemetrySummary. Returns nil when the snapshot holds
// nothing of interest (telemetry was off).
func summarizeTelemetry(snap telemetry.Snapshot, fr *telemetry.FlightRecorder, pid int) *TelemetrySummary {
	if len(snap.Counters) == 0 && len(snap.Histograms) == 0 && fr == nil {
		return nil
	}
	s := &TelemetrySummary{IndicatorFires: make(map[string]int64)}
	for name, v := range snap.Counters {
		switch {
		case strings.HasPrefix(name, fireMetricPrefix):
			ind := strings.TrimSuffix(strings.TrimPrefix(name, fireMetricPrefix), `"}`)
			s.IndicatorFires[ind] = v
		case name == "engine_union_fires_total":
			if v > 0 {
				s.IndicatorFires["union-bonus"] = v
			}
		case name == "engine_detections_total":
			s.Detections = v
		}
	}
	if h, ok := snap.Histograms["engine_measure_seconds"]; ok && h.Count > 0 {
		s.MeasureCount = h.Count
		s.MeasureP50 = h.Quantile(0.50)
		s.MeasureP99 = h.Quantile(0.99)
	}
	if fr != nil {
		if t := fr.Trace(pid); len(t.Events) > 0 {
			s.Trace = &t
		}
	}
	if len(s.IndicatorFires) == 0 {
		s.IndicatorFires = nil
	}
	return s
}

// IndicatorMixRow is one family's aggregate indicator firing profile.
type IndicatorMixRow struct {
	// Family is the ransomware family (Table I grouping).
	Family string `json:"family"`
	// Samples is how many runs carried telemetry summaries.
	Samples int `json:"samples"`
	// Fires sums indicator firings across the family's runs.
	Fires map[string]int64 `json:"fires"`
}

// IndicatorMixByFamily aggregates per-run indicator firing counts by sample
// family, for the telemetry section of the experiment export. Outcomes
// without telemetry summaries are skipped.
func IndicatorMixByFamily(outcomes []SampleOutcome) []IndicatorMixRow {
	byFamily := make(map[string]*IndicatorMixRow)
	var families []string
	for _, o := range outcomes {
		if o.Telemetry == nil || len(o.Telemetry.IndicatorFires) == 0 {
			continue
		}
		fam := o.Sample.Profile.Family
		row, ok := byFamily[fam]
		if !ok {
			row = &IndicatorMixRow{Family: fam, Fires: make(map[string]int64)}
			byFamily[fam] = row
			families = append(families, fam)
		}
		row.Samples++
		for ind, n := range o.Telemetry.IndicatorFires {
			row.Fires[ind] += n
		}
	}
	sort.Strings(families)
	rows := make([]IndicatorMixRow, 0, len(families))
	for _, fam := range families {
		rows = append(rows, *byFamily[fam])
	}
	return rows
}
