// Command sesd serves SES instances and scheduling queries over HTTP/JSON:
// upload an instance once, then answer many solve / extend / what-if queries
// against it. See the README for a curl walkthrough.
//
// Endpoints:
//
//	PUT    /instances/{name}            upload an instance (sesgen JSON)
//	GET    /instances/{name}            download the current version
//	DELETE /instances/{name}            remove it
//	PATCH  /instances/{name}            mutate interest/activity/competing (bumps version)
//	GET    /instances                   list stored instances
//	POST   /instances/{name}/solve      run ALG|INC|HOR|HOR-I|TOP|RAND
//	POST   /instances/{name}/extend     grow an existing schedule greedily
//	POST   /instances/{name}/simulate   Monte-Carlo check a schedule
//	POST   /instances/{name}/summarize  render the organizer report
//	POST   /instances/{name}/jobs       submit an async algorithm × k sweep job
//	GET    /jobs, GET /jobs/{id}        list jobs / poll one (partial results)
//	DELETE /jobs/{id}                   cancel a job (running cells stop mid-solve)
//	GET    /healthz, GET /stats         readiness (503 during WAL replay); the metrics as flat JSON
//
// With -data-dir the service is durable: every mutation, completed solve and
// finished job is written ahead to a segmented CRC-checksummed WAL, rolled
// into snapshots by a background compactor, and replayed on boot to a
// bit-identical state (names, versions, digests, cached results, finished
// jobs) before the listener opens. See the README's "Durability" section for
// the -fsync / -segment-bytes / -compact-every trade-offs.
//
// Example:
//
//	sesgen -k 10 -users 2000 -o fest.json
//	sesd -addr :8080 -data-dir /var/lib/sesd &
//	curl -X PUT --data-binary @fest.json localhost:8080/instances/fest
//	curl -X POST -d '{"algorithm":"HOR-I","k":10}' localhost:8080/instances/fest/solve
//	curl -X POST -d '{"algorithms":["ALG","HOR-I"],"ks":[5,10]}' localhost:8080/instances/fest/jobs
package main

import (
	"os"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.Sesd(os.Args[1:], os.Stdout, os.Stderr))
}
