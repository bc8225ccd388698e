package ann

// stack is an ensemble's inference form: the first layers of all members
// packed so that one vector lane is one (member, hidden unit), and the
// output layers side by side. It exists only for ensembles whose members
// all share one [d, h, 1] topology — every ensemble the trainer produces —
// and is built once, when the ensemble is; members of any other shape are
// evaluated one by one (Ensemble.Predict's reference loop).
//
// Per output the stacked pass performs exactly Network.forward's operation
// sequence — hidden pre-activation bias first then ascending feature index,
// the shared sigmoid, output dot bias first then ascending unit index — and
// sums the members in ascending order, so it returns the bits the
// per-member loop returns.
type stack struct {
	inDim, hidden, members int
	// lanes is members·hidden rounded up to the vector width; lane
	// m·hidden+j is member m's hidden unit j, pad lanes hold zeros.
	lanes int
	// wT is the first layer, feature-major: row 0 the lane biases, row i+1
	// the lanes' weights for feature i — (inDim+1) rows of lanes columns.
	wT []float64
	// w2 is the output layer in the members' own row layout: per member,
	// hidden weights then the bias.
	w2 []float64
}

// newStack packs nets, or returns nil when they are not all the same
// [d, h, 1] topology.
func newStack(nets []*Network) *stack {
	if len(nets) == 0 || len(nets[0].Sizes) != 3 || nets[0].Sizes[2] != 1 {
		return nil
	}
	d, h := nets[0].Sizes[0], nets[0].Sizes[1]
	for _, n := range nets[1:] {
		if len(n.Sizes) != 3 || n.Sizes[0] != d || n.Sizes[1] != h || n.Sizes[2] != 1 {
			return nil
		}
	}
	s := &stack{inDim: d, hidden: h, members: len(nets), lanes: (len(nets)*h + 3) &^ 3}
	s.wT = make([]float64, (d+1)*s.lanes)
	s.w2 = make([]float64, 0, len(nets)*(h+1))
	for m, n := range nets {
		for j := 0; j < h; j++ {
			row := n.layerRow(0, j)
			u := m*h + j
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
	h := s.hidden
	var sum float64
	for m := 0; m < s.members; m++ {
		row := s.w2[m*(h+1):][:h+1]
		out := row[h]
		for j, a := range acts[m*h:][:h] {
			out += row[j] * a
		}
		sum += out
	}
	return sum
}
