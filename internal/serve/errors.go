package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// ErrorCode is a typed tool-error code, in the style of the k0rdent
// MCP server specs: a small closed vocabulary that clients can switch
// on without parsing messages.
type ErrorCode string

const (
	// CodeInvalidArgument rejects a malformed or unresolvable query
	// (HTTP 400). The message carries the offending field in the
	// repository's "field: reason" form, verbatim from validation.
	CodeInvalidArgument ErrorCode = "invalidArgument"
	// CodeNotFound reports a missing resource: an unknown scenario
	// or an uncached key on the cache-only fet.study.get path (404).
	CodeNotFound ErrorCode = "notFound"
	// CodeOverloaded reports that every fallback worker slot is busy;
	// the query was not started (429). Retry, or use an exact engine.
	CodeOverloaded ErrorCode = "overloaded"
	// CodeInternal reports an execution failure after admission (500).
	CodeInternal ErrorCode = "internal"
)

// httpStatus maps each code onto its transport status.
func (c ErrorCode) httpStatus() int {
	switch c {
	case CodeInvalidArgument:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeOverloaded:
		return http.StatusTooManyRequests
	default:
		return http.StatusInternalServerError
	}
}

// Error is a typed tool error. Backends return *Error (usually via
// Errorf) to select the code; anything else surfaces as CodeInternal.
type Error struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Errorf builds a typed tool error.
func Errorf(code ErrorCode, format string, args ...interface{}) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// errorEnvelope is the wire shape of every error response.
type errorEnvelope struct {
	Error *Error `json:"error"`
}

// asError coerces any error into a typed one (CodeInternal fallback).
func asError(err error) *Error {
	var te *Error
	if errors.As(err, &te) {
		return te
	}
	return &Error{Code: CodeInternal, Message: err.Error()}
}

// writeError renders err as the canonical JSON error envelope. It
// returns the code actually written, for metrics.
func writeError(w http.ResponseWriter, err error) ErrorCode {
	te := asError(err)
	body, mErr := json.Marshal(errorEnvelope{Error: te})
	if mErr != nil { // a string field cannot fail to marshal
		panic(mErr)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(te.Code.httpStatus())
	w.Write(body)
	return te.Code
}
