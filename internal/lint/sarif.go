package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// This file renders findings: one line per finding for the terminal, and
// SARIF 2.1.0 (the OASIS Static Analysis Results Interchange Format) for
// CI annotation surfaces like GitHub code scanning. Only the subset of
// SARIF the findings populate is modelled; every struct field maps 1:1
// onto the spec's property of the same name.

// SARIFSchemaURI and SARIFVersion identify the emitted dialect.
const (
	SARIFSchemaURI = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
	SARIFVersion   = "2.1.0"
)

// SARIFLog is the top-level SARIF document.
type SARIFLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []SARIFRun `json:"runs"`
}

// SARIFRun is one invocation of one tool.
type SARIFRun struct {
	Tool    SARIFTool     `json:"tool"`
	Results []SARIFResult `json:"results"`
}

// SARIFTool wraps the driver description.
type SARIFTool struct {
	Driver SARIFDriver `json:"driver"`
}

// SARIFDriver describes the analysis tool and its rules.
type SARIFDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []SARIFRule `json:"rules"`
}

// SARIFRule is one analyzer, keyed by its name.
type SARIFRule struct {
	ID               string       `json:"id"`
	ShortDescription SARIFMessage `json:"shortDescription"`
	FullDescription  SARIFMessage `json:"fullDescription,omitempty"`
}

// SARIFMessage is a text wrapper.
type SARIFMessage struct {
	Text string `json:"text"`
}

// SARIFResult is one finding.
type SARIFResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   SARIFMessage    `json:"message"`
	Locations []SARIFLocation `json:"locations,omitempty"`
}

// SARIFLocation wraps a physical location.
type SARIFLocation struct {
	PhysicalLocation SARIFPhysicalLocation `json:"physicalLocation"`
}

// SARIFPhysicalLocation is a file plus an optional region.
type SARIFPhysicalLocation struct {
	ArtifactLocation SARIFArtifactLocation `json:"artifactLocation"`
	Region           *SARIFRegion          `json:"region,omitempty"`
}

// SARIFArtifactLocation names the file.
type SARIFArtifactLocation struct {
	URI string `json:"uri"`
}

// SARIFRegion is a 1-based source region.
type SARIFRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// ToSARIF converts findings into a SARIF 2.1.0 log. The rules table lists
// every analyzer of the run (findings or not) plus the synthetic
// lintdirective rule, so consumers can enumerate the suite; results refer
// to rules by both id and index as the spec recommends.
func ToSARIF(findings []Finding, analyzers []*Analyzer) *SARIFLog {
	ruleIndex := make(map[string]int)
	var rules []SARIFRule
	addRule := func(id, summary, full string) {
		if _, ok := ruleIndex[id]; ok {
			return
		}
		ruleIndex[id] = len(rules)
		rules = append(rules, SARIFRule{
			ID:               id,
			ShortDescription: SARIFMessage{Text: summary},
			FullDescription:  SARIFMessage{Text: full},
		})
	}
	for _, a := range analyzers {
		summary, _, _ := strings.Cut(a.Doc, "\n")
		addRule(a.Name, summary, a.Doc)
	}
	addRule("lintdirective", "malformed or unknown //lint: suppression directive",
		"//lint:ignore and //lint:file-ignore directives must carry a reason and name registered analyzers; anything else is reported so suppressions stay auditable.")

	results := make([]SARIFResult, 0, len(findings))
	for _, f := range findings {
		if _, ok := ruleIndex[f.Analyzer]; !ok {
			addRule(f.Analyzer, f.Analyzer, f.Analyzer)
		}
		r := SARIFResult{
			RuleID:    f.Analyzer,
			RuleIndex: ruleIndex[f.Analyzer],
			Level:     "error",
			Message:   SARIFMessage{Text: f.Message},
		}
		if f.Pos.Filename != "" {
			loc := SARIFPhysicalLocation{
				ArtifactLocation: SARIFArtifactLocation{URI: f.Pos.Filename},
			}
			if f.Pos.Line > 0 {
				loc.Region = &SARIFRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column}
			}
			r.Locations = []SARIFLocation{{PhysicalLocation: loc}}
		}
		results = append(results, r)
	}

	return &SARIFLog{
		Schema:  SARIFSchemaURI,
		Version: SARIFVersion,
		Runs: []SARIFRun{{
			Tool: SARIFTool{Driver: SARIFDriver{
				Name:           "otem-lint",
				InformationURI: "https://github.com/otem/repro/tree/main/internal/lint",
				Rules:          rules,
			}},
			Results: results,
		}},
	}
}

// WriteSARIF renders findings as an indented SARIF 2.1.0 document.
func WriteSARIF(w io.Writer, findings []Finding, analyzers []*Analyzer) error {
	data, err := json.MarshalIndent(ToSARIF(findings, analyzers), "", "  ")
	if err != nil {
		return fmt.Errorf("lint: encode sarif: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteText renders findings in the classic one-line-per-finding form.
func WriteText(w io.Writer, findings []Finding) error {
	for _, f := range findings {
		if _, err := fmt.Fprintf(w, "%s: %s (%s)\n", f.Pos, f.Message, f.Analyzer); err != nil {
			return err
		}
	}
	return nil
}
