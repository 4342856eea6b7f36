package predictors

import (
	"prism5g/internal/rng"
	"prism5g/internal/trace"
)

// shuffleChunks sets the shuffle-buffer size in units of minibatches: the
// streaming loop holds at most Batch*shuffleChunks windows at once,
// shuffles within that buffer, and trains from it. A larger buffer
// approaches the full-shuffle trajectory of TrainLoop at the cost of
// memory; eight batches is enough to decorrelate the trace-ordered window
// stream a population build produces.
const shuffleChunks = 8

// TrainLoopStream is TrainLoop for window streams: the same loop, but the
// training and validation sets are consumed through trace.WindowStream in
// bounded chunks, so peak memory is Batch*shuffleChunks windows no matter
// how many windows the streams yield.
//
// Shuffling is local: each epoch re-reads the stream in order and
// shuffles within the bounded buffer, so the training trajectory differs
// from TrainLoop's global shuffle — equivalent in expectation, and equal
// bit for bit for one epoch when the buffer holds the whole set. Both
// streams are Reset at the start of every pass; a stream error aborts
// training and is returned alongside the best-so-far report.
func TrainLoopStream(m SeqModel, train, val trace.WindowStream, opts TrainOpts) (TrainReport, error) {
	return trainLoop(m, &streamSource{ws: train}, &streamSource{ws: val}, opts)
}

// streamSource re-reads a window stream every pass, dropping invalid
// windows. A shuffled pass buffers Batch*shuffleChunks windows at a time
// and shuffles within the buffer; an in-order pass reads a batch at a
// time.
type streamSource struct {
	ws          trace.WindowStream
	src         *rng.Source
	buf         []trace.Window
	batch, fill int
	pos         int
	eof         bool
}

func (s *streamSource) start(batch int, src *rng.Source) error {
	s.src, s.batch, s.fill = src, batch, batch
	if src != nil {
		s.fill *= shuffleChunks
	}
	s.buf, s.pos, s.eof = s.buf[:0], 0, false
	return s.ws.Reset()
}

func (s *streamSource) next() ([]trace.Window, error) {
	if s.pos == len(s.buf) {
		s.buf, s.pos = s.buf[:0], 0
		for !s.eof && len(s.buf) < s.fill {
			chunk, err := s.ws.Next(s.fill - len(s.buf))
			if err != nil {
				return nil, err
			}
			s.eof = len(chunk) == 0
			for _, w := range chunk {
				if ValidWindow(w) {
					s.buf = append(s.buf, w)
				}
			}
		}
		if s.src != nil {
			s.src.Shuffle(len(s.buf), func(i, j int) { s.buf[i], s.buf[j] = s.buf[j], s.buf[i] })
		}
	}
	end := min(s.pos+s.batch, len(s.buf))
	b := s.buf[s.pos:end]
	s.pos = end
	return b, nil
}
