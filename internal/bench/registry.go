package bench

import (
	"fmt"
	"sort"
)

// Runner regenerates one figure of the paper.
type Runner func(Config) (*Report, error)

// Figures maps the paper's figure ids to their runners.
var Figures = map[string]Runner{
	"fig3":  Fig3,
	"fig4":  Fig4,
	"fig5":  Fig5,
	"fig6":  Fig6,
	"fig7":  Fig7,
	"fig8a": Fig8a,
	"fig8b": Fig8b,
	"fig9":  Fig9,
	"fig10": Fig10,
	"fig11": Fig11,
	"fig12": Fig12,
	"fig13": Fig13,
}

// FigureIDs lists the figure ids in presentation order.
func FigureIDs() []string {
	ids := make([]string, 0, len(Figures))
	for id := range Figures {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// fig3 < fig4 < ... < fig8a < fig8b < fig10 ... numeric then suffix.
		ni, si := splitID(ids[i])
		nj, sj := splitID(ids[j])
		if ni != nj {
			return ni < nj
		}
		return si < sj
	})
	return ids
}

// splitID splits "fig8a" into its number and suffix: (8, "a").
func splitID(id string) (int, string) {
	n := 0
	i := 3 // skip "fig"
	for ; i < len(id) && id[i] >= '0' && id[i] <= '9'; i++ {
		n = n*10 + int(id[i]-'0')
	}
	return n, id[i:]
}

// Run executes one figure by id.
func Run(id string, cfg Config) (*Report, error) {
	r, ok := Figures[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown figure %q (have %v)", id, FigureIDs())
	}
	return r(cfg)
}
