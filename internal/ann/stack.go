package ann

// stack is an ensemble's inference form: the first layers of all members
// packed so that one vector lane is one (member, hidden unit), and the
// output layers side by side. NewEnsemble builds it once, from members that
// share one [d, Hidden, 1] shape.
//
// Per output the stacked pass performs exactly Network.forward's operation
// sequence — hidden pre-activation bias first then ascending feature index,
// the shared sigmoid, output dot bias first then ascending unit index — and
// sums the members in ascending order, so it returns the bits a loop over
// the members' own forward passes returns.
type stack struct {
	inDim, members int
	// lanes is members·Hidden; lane m·Hidden+j is member m's hidden unit j.
	lanes int
	// wT is the first layer, feature-major: row 0 the lane biases, row i+1
	// the lanes' weights for feature i — (inDim+1) rows of lanes columns.
	wT []float64
	// w2 is the output layer in the members' own row layout: per member,
	// hidden weights then the bias.
	w2 []float64
}

// newStack packs nets, which NewEnsemble has checked share one
// [d, Hidden, 1] shape.
func newStack(nets []*Network) *stack {
	d := nets[0].Sizes[0]
	s := &stack{inDim: d, members: len(nets), lanes: len(nets) * Hidden}
	s.wT = make([]float64, (d+1)*s.lanes)
	s.w2 = make([]float64, 0, len(nets)*(Hidden+1))
	for m, n := range nets {
		for j := 0; j < Hidden; j++ {
			row := n.layerRow(0, j)
			u := m*Hidden + j
			s.wT[u] = row[d]
			for i, w := range row[:d] {
				s.wT[(i+1)*s.lanes+u] = w
			}
		}
		s.w2 = append(s.w2, n.w[1]...)
	}
	return s
}

// sum returns Σ_m member_m(x) for a normalised input x of length inDim;
// acts is scratch of length lanes.
func (s *stack) sum(x, acts []float64) float64 {
	stackForward(acts, s.wT, x)
	var sum float64
	for m := 0; m < s.members; m++ {
		row := s.w2[m*(Hidden+1):][:Hidden+1]
		out := row[Hidden]
		for j, a := range acts[m*Hidden:][:Hidden] {
			out += float64(row[j] * a)
		}
		sum += out
	}
	return sum
}
