//go:build !linux

package main

import "time"

// pacer falls back to the runtime's timers, which wake an idle process up
// to a millisecond late; fleet_mix's lateness check then rejects the run.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (p *pacer) wait(due time.Time) error {
	time.Sleep(time.Until(due))
	return nil
}

func (p *pacer) close() {}
