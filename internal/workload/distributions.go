package workload

// The two public data-center traces the paper evaluates on (§5.5, citing
// Montazeri et al. [19] and Roy et al. [20]). The breakpoints below follow
// the distribution files published with the HPCC/Homa simulation artifacts.
// The breakpoints that carry probability mass are the x-axes of the paper's
// Figs 14 and 15 exactly (10KB…30MB for WebSearch, 75B…1MB for FB_Hadoop):
// the figure buckets are derived from them (Edges), so every bucket is
// populated.

// WebSearch returns the DCTCP web-search flow-size distribution: a heavy
// mix where most flows are tens of KB but most *bytes* belong to multi-MB
// flows. Mean ≈ 1.6 MB.
func WebSearch() *CDF {
	return MustCDF("WebSearch", []CDFPoint{
		{Bytes: 6_000, Cum: 0.00},
		{Bytes: 10_000, Cum: 0.15},
		{Bytes: 20_000, Cum: 0.20},
		{Bytes: 30_000, Cum: 0.30},
		{Bytes: 50_000, Cum: 0.40},
		{Bytes: 80_000, Cum: 0.53},
		{Bytes: 200_000, Cum: 0.60},
		{Bytes: 1_000_000, Cum: 0.70},
		{Bytes: 2_000_000, Cum: 0.80},
		{Bytes: 5_000_000, Cum: 0.90},
		{Bytes: 10_000_000, Cum: 0.97},
		{Bytes: 30_000_000, Cum: 1.00},
	})
}

// FBHadoop returns the Facebook Hadoop-cluster flow-size distribution:
// dominated by sub-MTU and few-KB flows with a thin tail to 1 MB.
// Mean ≈ 12 KB.
func FBHadoop() *CDF {
	return MustCDF("FB_Hadoop", []CDFPoint{
		{Bytes: 75, Cum: 0.10},
		{Bytes: 250, Cum: 0.20},
		{Bytes: 350, Cum: 0.30},
		{Bytes: 1_000, Cum: 0.50},
		{Bytes: 2_000, Cum: 0.60},
		{Bytes: 6_000, Cum: 0.70},
		{Bytes: 10_000, Cum: 0.80},
		{Bytes: 15_000, Cum: 0.90},
		{Bytes: 23_000, Cum: 0.95},
		{Bytes: 24_000, Cum: 0.97},
		{Bytes: 25_000, Cum: 0.98},
		{Bytes: 100_000, Cum: 0.99},
		{Bytes: 1_000_000, Cum: 1.00},
	})
}

// named lists the trace distributions by the one name each is known by in
// a spec and a figure table, built once: a CDF is read-only.
var named = []struct {
	name string
	cdf  *CDF
}{{"websearch", WebSearch()}, {"hadoop", FBHadoop()}}

// Names returns the names ByName accepts.
func Names() []string {
	out := make([]string, len(named))
	for i, n := range named {
		out[i] = n.name
	}
	return out
}

// ByName resolves a trace distribution by its name. Every call returns the
// same shared CDF.
func ByName(name string) (*CDF, bool) {
	for _, n := range named {
		if n.name == name {
			return n.cdf, true
		}
	}
	return nil, false
}
