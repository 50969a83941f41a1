package faultio

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParsePlan parses the compact fault-schedule spec the hidden
// `trianglecount -inject` flag takes: comma-separated key=value pairs,
//
//	seed=7,every=3,max=10,kinds=eio+reset,stall=5ms,horizon=1000
//
// Keys: seed (uint64), every (int, required to inject anything), max (int64
// fault cap), kinds (+-separated subset of eio|stall|trunc|reset|close),
// stall (duration), horizon (int). Unknown keys are errors. An empty spec
// yields a disabled plan.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return p, fmt.Errorf("faultio: spec field %q is not key=value", field)
		}
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseUint(val, 10, 64)
		case "every":
			p.Every, err = strconv.Atoi(val)
		case "max":
			p.MaxFaults, err = strconv.ParseInt(val, 10, 64)
		case "horizon":
			p.Horizon, err = strconv.Atoi(val)
		case "stall":
			p.Stall, err = time.ParseDuration(val)
		case "kinds":
			for _, name := range strings.Split(val, "+") {
				var k Kind
				k, err = parseKind(name)
				if err != nil {
					break
				}
				p.Kinds = append(p.Kinds, k)
			}
		default:
			return p, fmt.Errorf("faultio: unknown spec key %q", key)
		}
		if err != nil {
			return p, fmt.Errorf("faultio: spec field %q: %w", field, err)
		}
	}
	return p, nil
}

func parseKind(name string) (Kind, error) {
	switch strings.TrimSpace(name) {
	case "eio":
		return KindEIO, nil
	case "stall":
		return KindStall, nil
	case "trunc":
		return KindTruncate, nil
	case "reset":
		return KindFailReset, nil
	case "close":
		return KindFailClose, nil
	default:
		return kindNone, fmt.Errorf("unknown fault kind %q", name)
	}
}
