package jobs

import "errors"

// ErrCanceled reports that a job was canceled by the tenant (or its
// admission wait was abandoned) before its sort completed.
var ErrCanceled = errors.New("jobs: job canceled")

// ErrKilled reports that the server was torn down while the job was in
// flight. An on-disk job interrupted this way is not failed — the next
// Manager over the same root resumes it from its checkpoint.
var ErrKilled = errors.New("jobs: server shut down")

// ErrOverBudget reports a job whose working memory alone exceeds the
// server's entire budget — it can never be admitted.
var ErrOverBudget = errors.New("jobs: job exceeds server memory budget")

// ErrDraining reports a submission refused because the server is
// draining: it finishes the jobs it has and accepts no new ones.
var ErrDraining = errors.New("jobs: server is draining")
