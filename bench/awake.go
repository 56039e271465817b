package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// Wherever a workload leaves a core idle — an HTTP client or the server
// asleep until the other answers, the second core during a one-goroutine
// write probe, a writer blocked behind a compaction — the idle virtual CPU
// halts. The event that ends the pause then first waits for the host to
// schedule the vCPU again (50-150 us of a 170 us HTTP request); and with
// a vCPU halted now and then, memory-bound work on the other one (a
// remove) ran a quarter slower in a quarter of the runs — the host, it
// seems, lends the halted vCPU's place to a neighbour. None of that is the
// repository's code. So beside every workload
// run, one spinner per core runs under SCHED_IDLE, the class every normal
// task preempts at once: the workload runs as if alone, and the vCPUs stay
// awake. Measured over ten seeds, run-to-run spread without -> with:
// http_api p50 12 % -> 2-4 %, p95 20 % -> 4-8 %, throughput 13 % -> 2-4 %;
// remove_p50_ms 23 % -> 3-6 % on compare_dfs and live_mixed, whose runs
// had come in two kinds, 9 ms and 11.4 ms.
//
// The spinners are a child process — this binary with -spin — so that
// they share nothing with the workload's Go scheduler.

// schedIdle is Linux's SCHED_IDLE policy number.
const schedIdle = 5

// spinMain is the -spin child: one SCHED_IDLE spinning thread per core,
// "ok" on stdout once all are set, then nothing until it is killed.
func spinMain() {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n + 1) // the spinners never yield; this goroutine needs a slot too
	ready := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			var param struct{ priority int32 }
			// pid 0 is the calling thread.
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
				ready <- fmt.Errorf("sched_setscheduler(SCHED_IDLE): %v", errno)
				return
			}
			ready <- nil
			for {
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-ready; err != nil {
			fatal(err)
		}
	}
	fmt.Println("ok")
	select {}
}

// keepAwake starts the spinners, if cfg asks for them, and returns the
// function that kills them and waits for them to be gone.
func keepAwake(cfg runConfig) (stop func(), err error) {
	if !cfg.awake {
		return func() {}, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-spin")
	cmd.Stderr = os.Stderr
	// Should this process die without running stop, the kernel kills the
	// child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	stop = func() {
		_ = cmd.Process.Kill() // fails only if it has exited already
		_ = cmd.Wait()         // killed: the status says nothing
	}
	if line, err := bufio.NewReader(out).ReadString('\n'); err != nil || line != "ok\n" {
		stop()
		return nil, fmt.Errorf("keep-awake spinners did not start: %q %v", line, err)
	}
	return stop, nil
}
