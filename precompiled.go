package tornado

import (
	"bytes"
	"embed"
	"fmt"
	"sort"
	"strings"

	"tornado/internal/graphml"
)

// The paper's conclusion: "A storage system using Tornado Codes where data
// loss must be avoided should use precompiled graphs and not random
// graphs". The library therefore ships certified graph instances, each
// produced by the full generate → screen/repair → adjust → certify
// pipeline (regenerate with cmd/precompile). The .cert sidecars record the
// exhaustive-search certification.
//
//go:embed precompiled
var precompiledFS embed.FS

// precompiledNames lists the certified graphs shipped with the library.
func precompiledNames() []string {
	entries, err := precompiledFS.ReadDir("precompiled")
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".graphml") {
			names = append(names, strings.TrimSuffix(e.Name(), ".graphml"))
		}
	}
	sort.Strings(names)
	return names
}

// LoadPrecompiled returns a shipped certified graph by name; an unknown
// name's error lists the shipped ones.
func LoadPrecompiled(name string) (*Graph, error) {
	data, err := precompiledFS.ReadFile("precompiled/" + name + ".graphml")
	if err != nil {
		return nil, fmt.Errorf("tornado: unknown precompiled graph %q (have %v)", name, precompiledNames())
	}
	return graphml.Decode(bytes.NewReader(data))
}

// PrecompiledCertificate returns the certification record of a shipped
// graph: the seed, adjustment target, and the exhaustive-search results
// that back its fault-tolerance claim.
func PrecompiledCertificate(name string) (string, error) {
	data, err := precompiledFS.ReadFile("precompiled/" + name + ".cert")
	if err != nil {
		return "", fmt.Errorf("tornado: no certificate for %q", name)
	}
	return string(data), nil
}
