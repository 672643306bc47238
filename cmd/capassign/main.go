// Command capassign solves one client assignment instance through the
// public dvecap API. The instance is a cluster spec (string IDs, measured
// RTTs; see dvecap.ReadClusterJSON), read with -cluster or generated from
// one of the paper's scenarios with -scenario and -seed (servers "s0"…,
// zones "z0"…, clients "c0"…). The solution is written as JSON keyed by
// those IDs, with its metrics; the timing line goes to stderr.
//
// Usage:
//
//	capassign -scenario 20s-80z-1000c-500cp -algorithm GreZ-GreC -seed 7
//	capassign -cluster cluster.json -algorithm GreZ-VirC -out result.json
//	capassign -cluster cluster.json -dump normalized.json
//	capassign -scenario 5s-15z-200c-100cp -dump cluster.json
//	curl host/v1/problem > live.json && capassign -cluster live.json
//
// -dump writes the instance as a normalized, round-trippable cluster spec
// (full inter-server matrix, dense client rows) instead of solving it. A
// director's GET /v1/problem body is already in that form.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"dvecap"
)

func main() {
	var (
		scenario  = flag.String("scenario", "20s-80z-1000c-500cp", "scenario notation to generate (ignored with -cluster)")
		seed      = flag.Uint64("seed", 1, "random seed for generation and algorithms")
		cluster   = flag.String("cluster", "", "read a cluster-spec JSON (bring-your-own-infrastructure IDs and RTTs) instead of generating")
		outFile   = flag.String("out", "", "write the result JSON here (default stdout)")
		dump      = flag.String("dump", "", "write the instance as a normalized cluster-spec JSON here and exit")
		algorithm = flag.String("algorithm", "GreZ-GreC", "two-phase algorithm (see -list)")
		delays    = flag.Bool("delays", false, "include per-client delays in the output")
		list      = flag.Bool("list", false, "list available algorithms and exit")
	)
	flag.Parse()

	if *list {
		for _, n := range dvecap.Algorithms() {
			fmt.Println(n)
		}
		return
	}
	c, err := load(*cluster, *scenario, *seed)
	if err == nil {
		if *dump != "" {
			err = dumpCluster(c, *dump)
		} else {
			err = solveCluster(c, *algorithm, *seed, *outFile, *delays)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "capassign:", err)
		os.Exit(1)
	}
}

// load reads the cluster spec at path, or generates the scenario when path
// is empty.
func load(path, scenario string, seed uint64) (*dvecap.Cluster, error) {
	if path == "" {
		scn, err := dvecap.NewScenario(dvecap.ScenarioParams{Notation: scenario, Seed: seed})
		if err != nil {
			return nil, err
		}
		return scn.Cluster(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dvecap.ReadClusterJSON(f)
}

// clusterResultJSON reports a solve against the instance's own IDs.
type clusterResultJSON struct {
	Algorithm   string             `json:"algorithm"`
	PQoS        float64            `json:"pqos"`
	Utilization float64            `json:"utilization"`
	WithQoS     int                `json:"with_qos"`
	Clients     int                `json:"clients"`
	ZoneServers map[string]string  `json:"zone_servers"`
	Contacts    map[string]string  `json:"contacts"`
	DelaysMs    map[string]float64 `json:"delays_ms,omitempty"`
}

// dumpCluster writes the instance as a normalized cluster spec.
func dumpCluster(c *dvecap.Cluster, path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := c.WriteClusterJSON(out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "capassign: wrote cluster spec (%d servers, %d zones, %d clients) to %s\n",
		c.NumServers(), c.NumZones(), c.NumClients(), path)
	return nil
}

func solveCluster(c *dvecap.Cluster, algorithm string, seed uint64, outFile string, withDelays bool) error {
	start := time.Now()
	res, err := c.Solve(algorithm, dvecap.WithSeed(seed))
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	servers, zones := c.ServerIDs(), c.ZoneIDs()
	out := clusterResultJSON{
		Algorithm:   res.Algorithm,
		PQoS:        res.PQoS,
		Utilization: res.Utilization,
		WithQoS:     res.WithQoS,
		Clients:     res.Clients,
		ZoneServers: make(map[string]string, len(zones)),
		Contacts:    make(map[string]string, len(res.ClientIDs)),
	}
	for z, s := range res.ZoneServer {
		out.ZoneServers[zones[z]] = servers[s]
	}
	for j, id := range res.ClientIDs {
		out.Contacts[id] = servers[res.ClientContact[j]]
	}
	if withDelays {
		out.DelaysMs = make(map[string]float64, len(res.ClientIDs))
		for j, id := range res.ClientIDs {
			out.DelaysMs[id] = res.Delays[j]
		}
	}

	w := os.Stdout
	if outFile != "" {
		f, err := os.Create(outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "capassign: %s solved %d clients in %s: pQoS %.3f, R %.3f\n",
		res.Algorithm, res.Clients, elapsed.Round(time.Microsecond), res.PQoS, res.Utilization)
	return nil
}
