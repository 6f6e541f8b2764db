// WAL codec for the async job store: how serve-layer payloads and
// results cross a process restart. Payloads persist the validated
// request (series + wire options + details flag) and recompute the
// cache fingerprint on decode. Results persist the answer itself —
// the same value the result cache and the status handler hold — and
// failures their wire error, so a job restored after a restart is
// indistinguishable from a live one.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
)

// persistedPayload is the durable form of a jobPayload.
type persistedPayload struct {
	Series  []float64   `json:"series"`
	Options *APIOptions `json:"options,omitempty"`
	Details bool        `json:"details,omitempty"`
}

// walCodec implements jobs.Codec for the serve layer.
type walCodec struct{}

func (walCodec) EncodePayload(payload any) ([]byte, error) {
	jp, ok := payload.(*jobPayload)
	if !ok {
		return nil, fmt.Errorf("serve: cannot persist payload of type %T", payload)
	}
	return json.Marshal(persistedPayload{
		Series:  jp.series,
		Options: jp.apiOpts,
		Details: jp.details,
	})
}

func (walCodec) DecodePayload(data []byte) (any, error) {
	var pp persistedPayload
	if err := json.Unmarshal(data, &pp); err != nil {
		return nil, fmt.Errorf("serve: decode persisted payload: %w", err)
	}
	// Re-validate the restored options: a record written by a newer
	// build (or corrupted in a CRC-colliding way) must not smuggle an
	// unvalidated request into the executor.
	if _, err := pp.Options.toOptions(); err != nil {
		return nil, fmt.Errorf("serve: persisted payload options: %w", err)
	}
	key := requestKey(pp.Series, pp.Options.canonicalTag())
	return &jobPayload{series: pp.Series, apiOpts: pp.Options, key: key, details: pp.Details}, nil
}

func (walCodec) EncodeResult(res any) ([]byte, error) {
	a, ok := res.(*answer)
	if !ok {
		return nil, fmt.Errorf("serve: cannot persist result of type %T", res)
	}
	return json.Marshal(a)
}

func (walCodec) DecodeResult(data []byte) (any, error) {
	var a answer
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("serve: decode persisted result: %w", err)
	}
	return &a, nil
}

// EncodeError persists the wire error execJob fails a job with; any
// other failure (a drain, a restart) replays from its kind.
func (walCodec) EncodeError(err error) []byte {
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		return nil
	}
	b, _ := json.Marshal(apiErr)
	return b
}

func (walCodec) DecodeError(data []byte) error {
	var apiErr APIError
	if json.Unmarshal(data, &apiErr) != nil || apiErr.Code == "" {
		return nil
	}
	return &apiErr
}
