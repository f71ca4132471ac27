package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/jobs"
)

// runServerMode is wbtune's client mode: submit a JobSpec to a wbtuned
// server, stream its rounds, and print them and the final result to w.
// Returns the exit code.
func runServerMode(w io.Writer, server string, spec core.JobSpec) int {
	base := strings.TrimRight(server, "/")
	body, err := json.Marshal(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wbtune: encoding spec: %v\n", err)
		return 1
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "wbtune: %v\n", err)
		return 1
	}
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		fmt.Fprintf(os.Stderr, "wbtune: submit refused (%s): %s", resp.Status, msg)
		return 1
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	fmt.Fprintf(w, "submitted %q (program %s, seed %d) to %s\n",
		spec.Name, spec.Program, spec.Seed, base)

	resp, err = http.Get(base + "/v1/jobs/" + url.PathEscape(spec.Name) + "/rounds")
	if err != nil {
		fmt.Fprintf(os.Stderr, "wbtune: streaming rounds: %v\n", err)
		return 1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		fmt.Fprintf(os.Stderr, "wbtune: rounds stream refused (%s): %s", resp.Status, msg)
		return 1
	}

	var final *jobs.Status
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() && final == nil {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "round":
				var rd jobs.Round
				if json.Unmarshal([]byte(data), &rd) == nil {
					fmt.Fprintf(w, "round %-3d %-12s best=%.6f %s\n", rd.Seq, rd.Region, rd.Score, rd.Note)
				}
			case "done":
				var st jobs.Status
				if err := json.Unmarshal([]byte(data), &st); err != nil {
					fmt.Fprintf(os.Stderr, "wbtune: bad done event: %v\n", err)
					return 1
				}
				final = &st
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "wbtune: rounds stream: %v\n", err)
		return 1
	}
	if final == nil {
		fmt.Fprintln(os.Stderr, "wbtune: stream ended before the job finished")
		return 1
	}
	fmt.Fprintf(w, "state:      %s\n", final.State)
	if final.Error != "" {
		fmt.Fprintf(w, "error:      %s\n", final.Error)
	}
	if final.Result != "" {
		fmt.Fprintf(w, "result:\n%s", final.Result)
	}
	if final.State != jobs.StateCompleted {
		return 1
	}
	return 0
}

// argsFlag collects repeatable -arg key=value pairs.
type argsFlag map[string]string

func (a argsFlag) String() string { return fmt.Sprint(map[string]string(a)) }

func (a argsFlag) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return fmt.Errorf("want key=value, got %q", s)
	}
	a[k] = v
	return nil
}
