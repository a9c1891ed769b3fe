package jobs

// The admission-control error taxonomy of the vaxd service. Every way a
// submission can be rejected or a job can die is a sentinel, so callers
// branch with errors.Is instead of string matching, and HTTPStatus maps
// the whole taxonomy onto wire status codes in one tested table —
// the same discipline internal/faults applies to measurement faults.

import (
	"errors"
	"net/http"

	"vax780"
)

var (
	// ErrQueueFull rejects a submission because the bounded job queue
	// is at depth: the service sheds load instead of buffering without
	// bound (HTTP 429).
	ErrQueueFull = errors.New("jobs: queue full, submission shed")

	// ErrQuotaExceeded rejects a submission because the tenant's token
	// bucket is empty (HTTP 429).
	ErrQuotaExceeded = errors.New("jobs: tenant quota exceeded")

	// ErrDeadlineExceeded reports a job canceled by its own deadline:
	// the run was stopped at a workload boundary and the job marked
	// timed-out (HTTP 504).
	ErrDeadlineExceeded = errors.New("jobs: job deadline exceeded")

	// ErrDraining rejects a submission because the service is shutting
	// down gracefully: no new admissions, in-flight jobs checkpointed
	// and requeued for the next process (HTTP 503).
	ErrDraining = errors.New("jobs: service draining")

	// ErrBadSpec rejects a submission whose spec cannot be turned into
	// a run (HTTP 400).
	ErrBadSpec = errors.New("jobs: invalid job spec")

	// ErrUnknownJob reports a job ID the manager has no record of
	// (HTTP 404).
	ErrUnknownJob = errors.New("jobs: unknown job")
)

// httpStatus is the one table mapping the error taxonomy onto HTTP
// status codes. Order matters only for readability; sentinels are
// disjoint.
var httpStatus = []struct {
	err  error
	code int
}{
	{ErrQueueFull, http.StatusTooManyRequests},
	{ErrQuotaExceeded, http.StatusTooManyRequests},
	{ErrDeadlineExceeded, http.StatusGatewayTimeout},
	{ErrDraining, http.StatusServiceUnavailable},
	{ErrBadSpec, http.StatusBadRequest},
	{vax780.ErrBadConfig, http.StatusBadRequest},
	{ErrUnknownJob, http.StatusNotFound},
}

// HTTPStatus maps an error from the jobs layer to the HTTP status code
// vaxd serves for it: nil is 200, unrecognized errors are 500.
func HTTPStatus(err error) int {
	if err == nil {
		return http.StatusOK
	}
	for _, row := range httpStatus {
		if errors.Is(err, row.err) {
			return row.code
		}
	}
	return http.StatusInternalServerError
}
