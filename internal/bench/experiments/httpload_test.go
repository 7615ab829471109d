package experiments

import "testing"

// TestMixedRWSchedule: over 4 clients and 10 000 requests, each client
// sending i = c, c+4, c+8, …, every delete mixed_rw sends names a vertex
// that is live and was added by the same client, and every add names a
// vertex that is not live — so every write of the workload can succeed.
func TestMixedRWSchedule(t *testing.T) {
	const clients, requests = 4, 10_000
	owner := map[int64]int{} // live vertex -> the client that added it
	adds, deletes := 0, 0
	for c := 0; c < clients; c++ {
		for i := c; i < requests; i += clients {
			switch kind, id := mixedRW(i, clients); kind {
			case mixedAdd:
				if who, live := owner[id]; live {
					t.Fatalf("request %d (client %d) adds %d, still live from client %d", i, c, id, who)
				}
				owner[id] = c
				adds++
			case mixedDelete:
				if who, live := owner[id]; !live || who != c {
					t.Fatalf("request %d (client %d) deletes %d: live %v, added by client %d", i, c, id, live, who)
				}
				delete(owner, id)
				deletes++
			}
		}
	}
	if adds == 0 || deletes == 0 || adds-deletes > clients {
		t.Fatalf("%d adds and %d deletes over %d requests", adds, deletes, requests)
	}
}
