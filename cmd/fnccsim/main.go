// fnccsim regenerates the paper's micro-benchmark figures from the command
// line. Subcommands map to DESIGN.md's experiment index:
//
//	fnccsim micro    — Figs 1b-d / 9: dumbbell queue, rates, utilization
//	fnccsim pfc      — Fig 3: PFC pause frames at 200/400G
//	fnccsim hoploc   — Fig 13a-d: congestion location gains (± LHCS)
//	fnccsim fairness — Fig 13e: staggered fairness
//	fnccsim notify   — Fig 2/12: notification latency matrix
//
// Use -csv to dump raw time series for re-plotting.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/exp"
	"repro/internal/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "micro":
		err = cmdMicro(os.Args[2:])
	case "pfc":
		err = cmdPFC(os.Args[2:])
	case "hoploc":
		err = cmdHopLoc(os.Args[2:])
	case "fairness":
		err = cmdFairness(os.Args[2:])
	case "notify":
		err = cmdNotify(os.Args[2:])
	case "incast":
		err = cmdIncast(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "fnccsim: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fnccsim:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fnccsim <micro|pfc|hoploc|fairness|notify|incast> [flags]
Run 'fnccsim <subcommand> -h' for flags.`)
}

func cmdMicro(args []string) error {
	fs := flag.NewFlagSet("micro", flag.ExitOnError)
	rate := fs.Int64("rate", 100, "link rate in Gbps (paper: 100/200/400)")
	durUs := fs.Int("us", 1200, "observation window, microseconds")
	senders := fs.Int("senders", 2, "number of elephant senders")
	csv := fs.Bool("csv", false, "dump queue/rate/util time series as CSV")
	schemes := fs.String("schemes", "FNCC,HPCC,DCQCN,RoCC", "comma-separated schemes")
	fs.Parse(args)

	names := splitSchemes(*schemes)
	rs, err := exp.RunMicroAll(names, *rate*1e9, func(c *exp.MicroConfig) {
		c.Duration = sim.Time(*durUs) * sim.Microsecond
		c.Senders = *senders
	})
	if err != nil {
		return err
	}
	fmt.Print(exp.FormatMicroTable(*rate*1e9, rs))
	if *csv {
		for _, r := range rs {
			fmt.Println(r.Queue.CSV())
			fmt.Println(r.Util.CSV())
			for _, s := range r.Rates {
				fmt.Println(s.CSV())
			}
		}
	}
	return nil
}

func cmdPFC(args []string) error {
	fs := flag.NewFlagSet("pfc", flag.ExitOnError)
	durUs := fs.Int("us", 1200, "observation window, microseconds")
	pauseKB := fs.Int64("pausekb", 500, "PFC pause threshold, KB")
	fs.Parse(args)

	fmt.Println("PFC pause frames at the congestion point (Fig 3)")
	for _, rate := range []int64{200e9, 400e9} {
		rs, err := exp.RunMicroAll([]string{exp.SchemeDCQCN, exp.SchemeHPCC, exp.SchemeFNCC},
			rate, func(c *exp.MicroConfig) {
				c.Duration = sim.Time(*durUs) * sim.Microsecond
				c.PFCPauseBytes = *pauseKB << 10
			})
		if err != nil {
			return err
		}
		fmt.Printf("\n@%dGbps:\n", rate/1e9)
		for _, r := range rs {
			fmt.Printf("  %-8s pause frames: %d  (resumes: %d, queue peak %.0fKB)\n",
				r.Scheme, r.PauseFrames, r.ResumeFrames, r.QueuePeak/1000)
		}
	}
	return nil
}

func cmdHopLoc(args []string) error {
	fs := flag.NewFlagSet("hoploc", flag.ExitOnError)
	hop := fs.String("hop", "all", "first|middle|last|all")
	rates := fs.Bool("rates", false, "dump flow-rate series (Fig 13d)")
	fs.Parse(args)

	positions := []exp.HopPosition{exp.HopFirst, exp.HopMiddle, exp.HopLast}
	if *hop != "all" {
		positions = []exp.HopPosition{exp.HopPosition(*hop)}
	}
	var results []*exp.HopResult
	for _, pos := range positions {
		schemes := []string{exp.SchemeHPCC, exp.SchemeFNCC}
		if pos == exp.HopLast {
			schemes = append(schemes, exp.SchemeFNCCNoLHCS)
		}
		for _, s := range schemes {
			r, err := exp.RunHop(exp.DefaultHopConfig(s, pos))
			if err != nil {
				return err
			}
			results = append(results, r)
			if *rates {
				fmt.Println(r.Rates[0].CSV())
				fmt.Println(r.Rates[1].CSV())
			}
		}
	}
	fmt.Print(exp.FormatHopTable(results))
	return nil
}

func cmdFairness(args []string) error {
	fs := flag.NewFlagSet("fairness", flag.ExitOnError)
	scheme := fs.String("scheme", exp.SchemeFNCC, "scheme under test")
	staggerUs := fs.Int("stagger", 1000, "per-flow stagger, microseconds (paper: 100ms)")
	senders := fs.Int("senders", 4, "number of staggered senders")
	csv := fs.Bool("csv", false, "dump per-flow goodput series")
	fs.Parse(args)

	cfg := exp.DefaultFairnessConfig(*scheme)
	cfg.Stagger = sim.Time(*staggerUs) * sim.Microsecond
	cfg.Senders = *senders
	r, err := exp.RunFairness(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("fairness (%s, %d senders, %v stagger): Jain index %.4f during full overlap\n",
		r.Scheme, *senders, cfg.Stagger, r.JainAllActive)
	if *csv {
		for _, s := range r.Goodput {
			fmt.Println(s.CSV())
		}
	}
	return nil
}

func cmdNotify(args []string) error {
	fs := flag.NewFlagSet("notify", flag.ExitOnError)
	rate := fs.Int64("rate", 100, "link rate in Gbps")
	fs.Parse(args)

	cfg := exp.DefaultNotifyConfig()
	cfg.RateBps = *rate * 1e9
	rows, err := exp.RunNotify(cfg)
	if err != nil {
		return err
	}
	fmt.Print(exp.FormatNotifyTable(rows))
	return nil
}

func cmdIncast(args []string) error {
	fs := flag.NewFlagSet("incast", flag.ExitOnError)
	fanout := fs.Int("fanout", 16, "number of simultaneous senders")
	mb := fs.Int64("mb", 2, "megabytes per sender")
	schemes := fs.String("schemes", "FNCC,FNCC-noLHCS,HPCC,DCQCN", "comma-separated schemes")
	fs.Parse(args)

	var rs []*exp.IncastResult
	for _, s := range splitSchemes(*schemes) {
		cfg := exp.DefaultIncastConfig(s)
		cfg.Fanout = *fanout
		cfg.BytesPerSender = *mb << 20
		r, err := exp.RunIncast(cfg)
		if err != nil {
			return err
		}
		rs = append(rs, r)
	}
	fmt.Print(exp.FormatIncastTable(rs))
	return nil
}

func splitSchemes(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ',' })
}
