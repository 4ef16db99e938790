package fix

import srt "sort"

// A renamed import sorts all the same.
func collectRenamedSort(m tally) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	srt.Strings(out)
	return out
}
