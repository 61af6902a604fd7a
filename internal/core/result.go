package core

import "slipstream/internal/stats"

// Result reports one run: total parallel execution time, per-task time
// breakdowns (Figure 6), and the memory-system measurements (Figures 7
// and 9). Its JSON form carries every measurement the figures consume,
// so a persisted run can stand in for a fresh one.
type Result struct {
	Kernel string `json:"kernel"`
	Mode   Mode   `json:"mode"`
	ARSync ARSync `json:"arsync"`
	CMPs   int    `json:"cmps"`

	// Cycles is the parallel execution time: the completion time of the
	// last R-stream (or conventional) task.
	Cycles int64 `json:"cycles"`

	// Tasks holds one breakdown per R-stream/conventional task.
	Tasks []stats.Breakdown `json:"tasks,omitempty"`
	// ATasks holds one breakdown per A-stream (slipstream mode only),
	// including killed incarnations.
	ATasks []stats.Breakdown `json:"a_tasks,omitempty"`

	Mem stats.MemStats     `json:"mem"`
	Req stats.ReqBreakdown `json:"req"`
	TL  stats.TLStats      `json:"tl"`
	SI  stats.SIStats      `json:"si"`

	// Recoveries counts A-streams killed and reforked by the deviation
	// check.
	Recoveries int `json:"recoveries,omitempty"`

	// PolicySwitches counts adaptive A-R policy changes across all pairs,
	// and FinalPolicies records each pair's policy at the end of the run
	// (slipstream mode with AdaptiveARSync).
	PolicySwitches int      `json:"policy_switches,omitempty"`
	FinalPolicies  []ARSync `json:"final_policies,omitempty"`

	// VerifyErr records a kernel numeric-verification failure, if any.
	VerifyErr *VerifyError `json:"verify_err,omitempty"`
}

// VerifyError is a kernel's numeric-verification failure. Its text form,
// and so its JSON, is Msg; Err, the kernel's own error, does not survive
// decoding. Any message decodes as a failure, even an empty one.
type VerifyError struct {
	Msg string
	Err error
}

func (e *VerifyError) Error() string                { return e.Msg }
func (e *VerifyError) Unwrap() error                { return e.Err }
func (e *VerifyError) MarshalText() ([]byte, error) { return []byte(e.Msg), nil }

func (e *VerifyError) UnmarshalText(b []byte) error {
	*e = VerifyError{Msg: string(b)}
	return nil
}

// AvgTask returns the mean breakdown across R-stream/conventional tasks.
func (r *Result) AvgTask() stats.Breakdown { return avgBreakdown(r.Tasks) }

// AvgATask returns the mean breakdown across A-stream tasks.
func (r *Result) AvgATask() stats.Breakdown { return avgBreakdown(r.ATasks) }

func avgBreakdown(bs []stats.Breakdown) stats.Breakdown {
	var sum stats.Breakdown
	if len(bs) == 0 {
		return sum
	}
	for _, b := range bs {
		sum.Add(b)
	}
	return sum.Scale(1 / float64(len(bs)))
}
