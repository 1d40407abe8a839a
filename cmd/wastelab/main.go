// Command wastelab runs the tenways evaluation suite: it lists the
// experiments, runs one or all of them on a chosen machine preset —
// serially or on a bounded parallel worker pool — prints tables in a
// choice of formats, and optionally writes figure CSVs and a JSON lab
// report for machine consumers.
//
// Usage:
//
//	wastelab -list
//	wastelab -run T1 -machine petascale2009
//	wastelab -run t8,f22,f23 -seed 42 -csv out/
//	wastelab -run all -quick -parallel 8 -timeout 10m
//	wastelab -run all -quick -format markdown
//	wastelab -run all -quick -json report.json
//	wastelab -tune all -machine exascale
//
// Exit status: 0 when every requested experiment succeeded, 1 when any
// failed (the failing IDs go to stderr), 2 for usage errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"tenways"
)

func main() {
	var (
		list        = flag.Bool("list", false, "list experiments and exit")
		run         = flag.String("run", "", "comma-separated experiment ids to run, or 'all'")
		machineName = flag.String("machine", "petascale2009", "machine preset (see -machines)")
		machines    = flag.Bool("machines", false, "list machine presets and exit")
		quick       = flag.Bool("quick", false, "shrink sweeps for a fast run")
		format      = flag.String("format", "ascii", "output format: ascii, markdown, csv, json")
		parallel    = flag.Int("parallel", 1, "experiments to run concurrently (tables stay byte-identical at any width)")
		timeout     = flag.Duration("timeout", 0, "overall deadline for the run (0 = none), e.g. 10m")
		jsonPath    = flag.String("json", "", "write a JSON lab report to this file ('-' for stdout)")
		csvDir      = flag.String("csv", "", "directory to write figure CSVs into")
		seed        = flag.Uint64("seed", 0, "chaos scenario seed for T8/F22-F25 (0 = default; same seed, same tables)")
		tuneID      = flag.String("tune", "", "tune one remedy parameter by id (e.g. W1-block, f25), or 'all'")
	)
	flag.Parse()

	lab := tenways.NewLab()

	if *machines {
		for _, m := range tenways.Machines() {
			fmt.Printf("%-28s %d nodes x %d cores, %.3g GF/s/node, %.3g GB/s DRAM\n",
				m.Name, m.Nodes, m.CoresPerNode, m.PeakFlopsPerNode()/1e9, m.DRAM.BytesPerSec/1e9)
		}
		return
	}
	if *list || (*run == "" && *tuneID == "") {
		fmt.Println("experiments:")
		for _, e := range lab.Experiments() {
			fmt.Printf("  %-4s %s\n", e.ID, e.Title)
		}
		fmt.Println("\ntunables:")
		for _, tn := range tenways.Tunables(*quick) {
			fmt.Printf("  %-13s %s (default %s)\n", tn.ID, tn.Title, tn.DefaultLabel())
		}
		if *run == "" {
			fmt.Println("\nrun one with: wastelab -run <id> [-machine <preset>] [-quick] [-seed n] [-parallel n] [-format f] [-csv dir]")
			fmt.Println("tune one with: wastelab -tune <id> [-machine <preset>]")
		}
		return
	}

	spec := tenways.MachineByName(*machineName)
	if spec == nil {
		fmt.Fprintf(os.Stderr, "wastelab: unknown machine %q (try -machines)\n", *machineName)
		os.Exit(2)
	}
	renderer, err := tenways.RendererByName(*format)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wastelab: %v\n", err)
		os.Exit(2)
	}
	cfg := tenways.Config{Machine: spec, Quick: *quick, Seed: *seed}

	if *tuneID != "" {
		if err := runTune(*tuneID, spec, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "wastelab: %v\n", err)
			os.Exit(1)
		}
		if *run == "" {
			return
		}
	}

	var ids []string
	if strings.EqualFold(*run, "all") {
		ids = lab.IDs()
	} else {
		for _, id := range strings.Split(*run, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	// Validate the whole list before running anything.
	for i, id := range ids {
		e, err := lab.Get(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wastelab: unknown experiment %q; valid ids:\n", id)
			for _, e := range lab.Experiments() {
				fmt.Fprintf(os.Stderr, "  %-4s %s\n", e.ID, e.Title)
			}
			os.Exit(2)
		}
		ids[i] = e.ID
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Stream each result as soon as it (and everything before it) is done;
	// later experiments keep running on the pool meanwhile.
	renderErr := false
	onResult := func(r tenways.RunResult) {
		fmt.Printf("== %s: %s [machine %s]\n", r.ID, r.Title, spec.Name)
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "wastelab: %s: %v\n", r.ID, r.Err)
			return
		}
		if err := r.Output.RenderWith(os.Stdout, renderer); err != nil {
			fmt.Fprintf(os.Stderr, "wastelab: render %s: %v\n", r.ID, err)
			renderErr = true
			return
		}
		fmt.Println()
		if *csvDir != "" && r.Output.Figure != nil {
			path, err := writeFigureCSV(*csvDir, r.ID, r.Output)
			if err != nil {
				fmt.Fprintf(os.Stderr, "wastelab: %v\n", err)
				renderErr = true
				return
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}

	results, runErr := lab.RunAll(ctx, cfg, tenways.RunOptions{
		Workers:  *parallel,
		IDs:      ids,
		OnResult: onResult,
	})
	if runErr != nil && results == nil {
		// Bad ID lists are caught above; this is a belt-and-braces path.
		fmt.Fprintf(os.Stderr, "wastelab: %v\n", runErr)
		os.Exit(2)
	}

	report := tenways.NewLabReport(cfg, *parallel, results)
	if *jsonPath != "" {
		if err := writeJSONReport(*jsonPath, report); err != nil {
			fmt.Fprintf(os.Stderr, "wastelab: %v\n", err)
			os.Exit(1)
		}
		if *jsonPath != "-" {
			fmt.Printf("wrote %s\n", *jsonPath)
		}
	}

	if failed := report.FailedIDs(); len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "wastelab: %d of %d experiments failed: %s\n",
			len(failed), len(results), strings.Join(failed, ", "))
		os.Exit(1)
	}
	if renderErr {
		os.Exit(1)
	}
}

// writeFigureCSV writes one experiment's figure in the plotting CSV format.
func writeFigureCSV(dir, id string, out tenways.Output) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, strings.ToLower(id)+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := out.Figure.WriteCSV(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// writeJSONReport writes the lab report to path, or stdout for "-".
func writeJSONReport(path string, report *tenways.LabReport) error {
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(blob)
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// runTune searches one tunable (or all of them) on the machine and prints
// default vs tuned parameter and modeled cost.
func runTune(id string, spec *tenways.Machine, quick bool) error {
	var tunables []tenways.Tunable
	if strings.EqualFold(id, "all") {
		tunables = tenways.Tunables(quick)
	} else {
		tn, err := tenways.TunableByID(id, quick)
		if err != nil {
			return err
		}
		tunables = []tenways.Tunable{tn}
	}
	for _, tn := range tunables {
		res, err := tn.Tune(spec, tenways.TuneOptions{})
		if err != nil {
			return fmt.Errorf("%s: %v", tn.ID, err)
		}
		def, err := tn.Objective(spec)(tn.Default)
		if err != nil {
			return fmt.Errorf("%s: %v", tn.ID, err)
		}
		saving := 0.0
		if def.Seconds > 0 {
			saving = 100 * (1 - res.Best.Cost.Seconds/def.Seconds)
		}
		fmt.Printf("== %s: %s [machine %s]\n", tn.ID, tn.Title, spec.Name)
		fmt.Printf("   default %-14s %.4g s\n", tn.DefaultLabel(), def.Seconds)
		fmt.Printf("   tuned   %-14s %.4g s  (%s, %d evaluations, %.1f%% saved)\n\n",
			res.Describe(), res.Best.Cost.Seconds, res.Strategy, res.Evaluations, saving)
	}
	return nil
}
